"""The README's library sketch runs as printed, and its API names resolve."""
import importlib
import json
import os
import re
import runpy
from pathlib import Path

import pytest

import wordburst
from wordburst.cli import main

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


@pytest.mark.parametrize("mode, args", [("rank", []), ("dilute", ["--k-max", "3"]),
                                        ("dense", ["--k-min", "100", "--k-max", "1500"])])
def test_analyze_outputs_table_names_every_header(tmp_path, monkeypatch, mode, args):
    """The "Analyze outputs" table gives each CSV and plot file's columns; ``cli.py`` alone writes them."""
    table = re.search(r"### Analyze outputs\n\n(.*?)\n\n", README.read_text(encoding="utf-8"), re.DOTALL).group(1)
    [files] = [row.split("|")[2] for row in table.splitlines() if row.split("|")[1].strip() == mode]
    documented = dict(re.findall(r"`(\w+\.csv)` \(`([^`]+)`[;)]", files))
    spec = {"process": "heterogeneous-poisson", "horizon": 60, "n_words": 120, "seed": 4,
            "rate_distribution": "log-uniform", "tau_min": 0.05, "tau_max": 300.0}
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)  # no fit worker
    assert main(["simulate", "--spec", str(tmp_path / "spec.json"), "--output", str(tmp_path / "sim")]) == 0
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(tmp_path / "sim" / "matrix.tsv"), "--mode", mode, "--emit-plots",
                 *args, "--output", str(out)]) == 0
    written = {}
    for path in sorted(out.glob("*.csv")):
        with open(path, encoding="utf-8", newline="") as fh:
            line = fh.readline()
        plot = path.name.startswith("plot_")
        assert line.endswith("\n" if plot else "\r\n"), path.name
        written[path.name] = line.removeprefix("# ").rstrip("\r\n") if plot else line.rstrip("\r\n")
    assert written == documented
