"""Golden outputs: the README pipeline at a small fixed scale, pinned by sha256.

Every output file of ``simulate``, ``ingest`` (with a scan log) and
``analyze`` in rank, dilute and dense mode is hashed and compared with
digests recorded from an earlier build, so a refactor that changes any
result byte fails here.  Paths are relative to a fixed working directory
because ``manifest.json`` records the command line's input paths.  A
digest may only change together with a stated reason for the changed
output.
"""
import datetime as dt
import hashlib
import json
from pathlib import Path

from wordburst.cli import EXIT_OK, main

SPECS = {
    "spec.json": {"process": "heterogeneous-poisson", "horizon": 60, "n_words": 400, "seed": 3,
                  "rate_distribution": "log-uniform", "tau_min": 0.05, "tau_max": 300.0},
    "poisson.json": {"process": "poisson", "horizon": 40, "n_words": 200, "seed": 5, "rate": 0.3},
    "stretched.json": {"process": "stretched-renewal", "horizon": 80, "n_words": 200, "seed": 6,
                       "a": 0.1, "nu": 0.5},
}
MISSED_DAYS = (5, 6, 17)

COMMANDS = (
    ["simulate", "--spec", "spec.json", "--output", "sim"],
    ["simulate", "--spec", "poisson.json", "--output", "sim-poisson"],
    ["simulate", "--spec", "stretched.json", "--output", "sim-stretched"],
    ["ingest", "--input", "corpus.txt", "--scan-log", "scans.json", "--output", "ing"],
    ["analyze", "--input", "sim/matrix.tsv", "--mode", "rank", "--emit-plots", "--output", "rank"],
    ["analyze", "--input", "ing/matrix.tsv", "--mode", "rank", "--output", "ing-rank"],
    ["analyze", "--input", "sim/matrix.tsv", "--mode", "dilute", "--seed", "1",
     "--emit-plots", "--output", "dilute"],
    ["analyze", "--input", "sim/matrix.tsv", "--mode", "dilute", "--k-min", "3", "--k-max", "20",
     "--seed", "9", "--output", "dilute-k"],
    ["analyze", "--input", "ing/matrix.tsv", "--mode", "dilute", "--seed", "4", "--output", "ing-dilute"],
    ["analyze", "--input", "sim/matrix.tsv", "--mode", "dense", "--k-min", "100", "--k-max", "1500",
     "--seed", "2", "--emit-plots", "--output", "dense"],
)

GOLDEN = {
    "dense/dense.json": "2d6f1c30506bc8663c13665ae84a9fa7b0aaff0cec2e9471a00c85a19addef1a",
    "dense/manifest.json": "b63b52f48225807652b9ff0dd7b930acabf4b30c3ad7b04e2db0d5c6e7d8439f",
    "dense/plot_xtilde.csv": "57b665c142d225091ba5e38e7c748e699877618c4040414ca9ffb366dd8b3529",
    "dense/sigma_scaling.csv": "fbe545c2e28dffdc284ff4a55d03ea2311b5f1dcba4935fdfb6994d0cb28a820",
    "dense/xtilde.csv": "e0507f691a543dbdabd17a757f0f328855ee4fd6b1fc59e7bb56784969d9c6da",
    "dilute/aggregate.csv": "8efc8255b163054c58cb0883dcaac4130ce5215ea846b8e8858807a566802dc4",
    "dilute/aggregate_binned.csv": "6133766e53f931c096343e32f3fac14168494624f812c03392246f10f2a08ce8",
    "dilute/fits.json": "d58b161c7bc5faa0c19560989a8956c3138e8f326cd7b4677f61044f53ac55f5",
    "dilute/manifest.json": "0a408de8ee9278a0812e5f1060e844a0e28ee56330ae394192ca7b2010a7f32b",
    "dilute/meancheck.csv": "c4b96009528fa28084dbb68ec45b41a412ac05204c18b9d40e05403cbb76e1d9",
    "dilute/plot_rescaled.csv": "2280c870d953bdd809b27fa566f72bee006bd0f26bf50bae22849b3294db195a",
    "dilute/rescaled.csv": "f3fb81fd44b66535f7b4a453c48f6971237c582b0e25b7971f5823e304befc7b",
    "dilute/spectrum.csv": "d122aa7e8f9a04379f1ddf149d5b86c1c234c42ab90a164857a0dd1290c5af50",
    "dilute/waiting.csv": "fe7fe8866234889132abdd6307ccf14f88673096194aa033d3c054102f6ff6dc",
    "dilute/zeta.csv": "c8d9ba0e02bde12a97b5f530eee392564b98051865a563a8c68c3d04c8cf23d4",
    "dilute-k/aggregate.csv": "8efc8255b163054c58cb0883dcaac4130ce5215ea846b8e8858807a566802dc4",
    "dilute-k/aggregate_binned.csv": "6133766e53f931c096343e32f3fac14168494624f812c03392246f10f2a08ce8",
    "dilute-k/fits.json": "a26159dd6c625623b6c840f6ab48c442d41d7d66c7e0c7c5277c1f69ae923ca5",
    "dilute-k/manifest.json": "78ae36f0800f1ad81735c036813ff6ff6fd49d93fcb0bd2ebfde619b48d44d0c",
    "dilute-k/meancheck.csv": "426dcaeb46e2d7fc4dcb04428d9f07456010c4d6b8d1dc35d576388db4c9efad",
    "dilute-k/rescaled.csv": "b20896c4b4490886b6d310ea81c76b6d2a8c71a5443646d70a333a3923a71c71",
    "dilute-k/spectrum.csv": "d122aa7e8f9a04379f1ddf149d5b86c1c234c42ab90a164857a0dd1290c5af50",
    "dilute-k/waiting.csv": "2ad1fd9d1e4c9f4d8183525bcaafde0192b0bb156584f5e53f915add247905d4",
    "dilute-k/zeta.csv": "6860b2195ac37870178105bd4b561e8b74b4b9793bc24aa21117e1b720119571",
    "ing/cleaning_report.json": "dfcd50d042a6e4230c3c1003d9182128dba4db6eb2e423723c7811028454ad54",
    "ing/manifest.json": "43806ce2ccdd13c90bcb679dc1b6a6fd00df11a9f70f01b19b5e86005f1b0d73",
    "ing/matrix.tsv": "8c0fef004e3eb21874e285a7b75a3b90d1dd3d59c14a79f991b318c1818b8793",
    "ing-dilute/aggregate.csv": "d872540ec0349d7216d4bc7fe221091ce00f375a453a1db07bf00f05c6fc737e",
    "ing-dilute/aggregate_binned.csv": "bea4addf9f5f6964164a28c27abb997abd43c037dc8837e4f1b2ed7deb9fda99",
    "ing-dilute/fits.json": "2110356d844828e5a10de12e74fee183f6e41268c53fd21deda99ee15116eb8b",
    "ing-dilute/manifest.json": "944ae226c93d2d9b46a32c19d9dfdf7ccf458f05e364d8857a1335ca0f27b5f7",
    "ing-dilute/meancheck.csv": "d8d6ba7f7a50aa5d67c4ae7d7bbe57e9c8ba3069edeadf38a73dbbfafc527484",
    "ing-dilute/rescaled.csv": "63aa07cc00b99c7b7a5c16d784dd5baa754c710fba723868e4c85d94fb9e0664",
    "ing-dilute/spectrum.csv": "71121a2cba0db42f0c2034dd557b0587d7361d1dc7c7dc626c15510fb0ae18c6",
    "ing-dilute/waiting.csv": "01d1bd83be29c3c83b5a509e5bad412b070a9474813e647251dfd213295b4a4c",
    "ing-dilute/zeta.csv": "886042952f7db44d1c924b8d855ad0a91f7226845c216943a2745f9c72d2ca93",
    "ing-rank/fit.json": "a6c3d2c130f1d3d1d63e85f1915ce6b6501c32f152e6120a1f2ec31b6e8d2cd8",
    "ing-rank/manifest.json": "3cfa01f95865100ddd9d37d12e2d5af1768e8bfda050253db5c9954ff84b8e46",
    "ing-rank/rank.csv": "be3c3515b67de2e53d0d41bbc025643d24e44eeb606f7b83c34c20aa3e17c6cc",
    "rank/fit.json": "0c00c6b932b6859d632ec56e625196ca5bf51c134cc5f1e99938324a03db4d30",
    "rank/manifest.json": "5055362d055c123c35df26175c8ae48686d9c04c8d70b10f646a165830cb6723",
    "rank/plot_rank.csv": "864b2e5a58636efb3f46d8122393fa798de703b14d646029559fb0da90a6477e",
    "rank/rank.csv": "f3f9fefc4b6f63f772a6ad122e40877bff9e38c38ab56ec7574a3840abea15b1",
    "sim/manifest.json": "3db89cb3108fe99280f9fc1cd4258fa603dcbe9b1d249586b57c3dcfa32db008",
    "sim/matrix.tsv": "08b71d9e15a42e830aa4d5291a13684e2878c713456e5326c230331b8d2b2535",
    "sim/spec.json": "024e16e29fc94d27115708931143c7f109e1dfd14c756da8f6b725f2e3284af0",
    "sim-poisson/manifest.json": "cf0dd48cd13df2912be546b01b7ccbffac7ee71489bd1d541f01057114b57d53",
    "sim-poisson/matrix.tsv": "69a1c043e765e1305806edc319f358c8d1e7b8a2533ae370ce4b59b4566d37ff",
    "sim-poisson/spec.json": "ce3216aef41fa9185874f478a8a18f5f628f031b291f814770d5e9652d1cf60e",
    "sim-stretched/manifest.json": "48bd1038a2cc355517ea5343882057987decd617b2f24f1e07fc8e301087769c",
    "sim-stretched/matrix.tsv": "32b27dbc072494deb6d2e6f1497e407681db27417f476ec6f012d4e1dd36e2a8",
    "sim-stretched/spec.json": "f73ed30e7921077fe4ef4f9a44a643b51f7385ba6ec5cad64e88a68cdd147faa",
}


def write_inputs(root: Path) -> None:
    for name, spec in SPECS.items():
        (root / name).write_text(json.dumps(spec), encoding="utf-8")
    vocab = [f"word{i:03d}" for i in range(150)]
    epoch = dt.date(2005, 2, 11)
    lines = []
    for day in range(30):
        for post in range(3 + day % 4):
            # quadratic index: low indices recur far more often than high ones
            words = [vocab[(day * 31 + post * 17 + j * j * 7) % (20 + 13 * j)] for j in range(10)]
            lines.append(f"{epoch + dt.timedelta(days=day)}\tfeed{post % 3}\t<p>{' '.join(words)}</p>\n")
    (root / "corpus.txt").write_text("".join(lines), encoding="utf-8")
    days = [{"day_index": d, "scan_performed": d not in MISSED_DAYS, "new_post_count": 3 + d % 4}
            for d in range(30)]
    (root / "scans.json").write_text(json.dumps({"days": days}), encoding="utf-8")


def test_pipeline_outputs_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    for argv in COMMANDS:
        assert main(argv) == EXIT_OK, argv
    digests = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for out in sorted({argv[-1] for argv in COMMANDS})
        for path in sorted((tmp_path / out).iterdir())
    }
    assert digests == GOLDEN
