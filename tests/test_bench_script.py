import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_run_writes_the_layers_block(tmp_path, capsys):
    bench = _load_bench()
    assert bench.main(["--label", "smoke", "--quick", "--out", str(tmp_path)]) == 0
    path = tmp_path / "BENCH_smoke.json"
    assert capsys.readouterr().out.strip() == str(path)
    result = json.loads(path.read_text())
    assert result["label"] == "smoke" and result["quick"] is True and result["repeats"] == 1
    assert set(result["layers"]) == {
        "rank.n7", "det.n7", "rank.n40", "det.n40", "rank.n100", "det.n100",
        "det.chain_of_4_cycles_200.all_ones"}
    for entry in result["layers"].values():
        assert set(entry) == {"matrices", "best_s", "checksum"}
        assert entry["matrices"] >= 1 and entry["best_s"] >= 0
    # the chain's all-ones matrix is singular: a 4-cycle has two equal rows
    assert result["layers"]["det.chain_of_4_cycles_200.all_ones"]["checksum"] == 0
