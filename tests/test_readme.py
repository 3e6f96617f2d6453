"""The README's library sketch runs as printed, and its API names resolve."""
import importlib
import re
import runpy
from pathlib import Path

import wordburst

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_skips_classes_without_zeta(tmp_path, monkeypatch, capsys):
    sketch = re.search(r"## Library sketch\n+```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    (tmp_path / "sketch.py").write_text(sketch.group(1), encoding="utf-8")
    posts = {  # day -> words; horizon 10
        0: "once pair", 1: "tri", 3: "tri quad", 4: "quad", 5: "pair solo", 6: "quad", 8: "tri", 9: "quad",
    }
    (tmp_path / "corpus.txt").write_text(
        "".join(f"2005-02-{11 + d}\tf\t{text}\n" for d, text in posts.items()), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    runpy.run_path("sketch.py", run_name="__main__")
    # k=1 (once, solo) has no gaps and k=2 (pair) one gap: neither has a zeta
    assert [line.split()[0] for line in capsys.readouterr().out.splitlines()] == ["3", "4"]


def test_every_api_reference_resolves():
    refs = re.findall(r"`wordburst\.(\w+)\.(\w+)`", README.read_text(encoding="utf-8"))
    assert refs  # the pattern still finds the references it exists to check
    for module, name in refs:
        assert hasattr(importlib.import_module(f"wordburst.{module}"), name), f"wordburst.{module}.{name}"
    for name in wordburst.__all__:
        assert hasattr(wordburst, name), name
