"""The README's release ledger ("What a run releases") classes every field
a command writes exactly once: public, post-processing or outside.

One test runs ``run`` and ``compare`` and checks that the CSV columns and
summary.json keys they write are exactly the ledger's.  Another runs two
IDX train sets that differ by one example in shard 0, at the same paths,
and checks that every field the ledger calls public is byte-identical.
"""

import json
import re
from collections import Counter
from pathlib import Path

import numpy as np

from dpfedsim.cli import main
from dpfedsim.federation import ALGORITHMS
from test_data import write_idx_pair

ROOT = Path(__file__).resolve().parent.parent
CLASSES = {"public", "post-processing", "outside"}
PROCESS = "the process"

TINY_CFG = """
synthetic_classes = 3
synthetic_per_class = 20
synthetic_dim = 6
layer_sizes = 6,5,3
n_clients = 3
rounds = 2
eta = 0.05
batch_size = 8
seeds = 1,2
record_timing = false
"""


def ledger() -> list[tuple[str, str, str]]:
    """(output, field, class) of each name of each row of the README's
    release table; a cell lists its names comma-separated."""
    readme = (ROOT / "README.md").read_text()
    table = readme.split("## What a run releases", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in table.splitlines() if line.startswith("| ")][1:]
    entries = []
    for row in rows:
        outputs, fields, cls = (cell.strip() for cell in row.split("|")[1:4])
        entries += [
            (output.strip(" `"), field.strip(" `"), cls)
            for output in outputs.split(",")
            for field in fields.split(",")
        ]
    return entries


def _leaves(value, path: str, classed: set[str], out: dict) -> None:
    """Each leaf of a summary.json value under path into out: a dict is
    descended into unless the ledger classes it whole, and per_seed's keys
    read <seed>.  A leaf's value is its JSON text."""
    if path in classed or not isinstance(value, dict):
        out.setdefault(path, []).append(json.dumps(value, sort_keys=True))
        return
    for key, sub in value.items():
        step = "<seed>" if path == "per_seed" else key
        _leaves(sub, f"{path}.{step}" if path else step, classed, out)


def written(out: Path) -> dict[tuple[str, str], list[str]]:
    """(output, field) -> the values written, in file order, of every CSV
    column and summary.json leaf in out; a file name's digits read <k>."""
    fields: dict[tuple[str, str], list[str]] = {}
    for path in sorted(out.glob("*.csv")):
        name = re.sub(r"\d+", "<k>", path.name)
        header, *rows = (line.split(",") for line in path.read_text().splitlines())
        for field in header:
            fields.setdefault((name, field), [])
        for row in rows:
            for field, value in zip(header, row):
                fields[name, field].append(value)
    summary = out / "summary.json"
    if summary.exists():
        classed = {f for o, f, _ in ledger() if o == "summary.json"}
        leaves: dict[str, list[str]] = {}
        _leaves(json.loads(summary.read_text()), "", classed, leaves)
        fields.update({("summary.json", k): v for k, v in leaves.items()})
    return fields


def run_and_compare(cfg: Path, out: Path, algos: str) -> dict:
    """written() of a run and a compare of cfg, each into its own part of out."""
    assert main(["run", "--config", str(cfg), "--out", str(out / "run")]) == 0
    argv = ["compare", "--config", str(cfg), "--out", str(out / "cmp")]
    assert main([*argv, "--algos", algos]) == 0
    return written(out / "run") | written(out / "cmp")


def test_every_field_run_and_compare_write_is_classed_once(tmp_path, capsys):
    entries = ledger()
    pairs = [(output, field) for output, field, _ in entries]
    assert [pair for pair, n in Counter(pairs).items() if n > 1] == []
    assert {cls for _, _, cls in entries} == CLASSES
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    fields = run_and_compare(cfg, tmp_path, "gcfl,dp_fedavg")
    capsys.readouterr()
    # the names written but not classed, and those classed but not written
    assert set(fields) ^ {pair for pair in pairs if pair[0] != PROCESS} == set()
    process = {field for output, field in pairs if output == PROCESS}
    assert process == {"stdout", "exit code", "stderr"}


def _idx_config(tmp_path: Path, extra: int) -> Path:
    """A two-client IDX config of 10 classes of 8x8 images, label_split
    0-4;5-9; the train set ends with `extra` (0 or 1) more examples, of
    label 0.  Both data sets are written at the same paths."""
    rng = np.random.default_rng(53)
    labels = np.concatenate([np.arange(80) % 10, [0], np.arange(30) % 10])
    images = rng.integers(0, 120, size=(labels.size, 8, 8))
    for i, c in enumerate(labels):
        images[i, c // 2 + 3, c % 8] = 255
    lines = []
    for split, rows in (("train", slice(0, 80 + extra)), ("test", slice(81, None))):
        (tmp_path / split).mkdir(parents=True, exist_ok=True)
        img, lab = write_idx_pair(tmp_path / split, images[rows], labels[rows])
        lines += [f"{split}_images = {img}", f"{split}_labels = {lab}"]
    cfg = tmp_path / "idx.cfg"
    cfg.write_text(
        "dataset = idx\n"
        + "\n".join(lines)
        + "\nlabel_split = 0-4;5-9\n"
        "n_clients = 2\n"
        "layer_sizes = 64,8,10\n"
        "rounds = 3\n"
        "eta = 0.5\n"
        "batch_size = 8\n"
        "epsilon_budget = 25\n"
        "seeds = 1,2\n"
        "record_timing = false\n"
    )
    return cfg


def test_one_example_more_in_shard_0_moves_no_public_field(tmp_path, capsys):
    """Neighbouring train sets, one example of label 0 apart, so that only
    shard 0 moves: every field the ledger classes public is byte-identical
    between their runs and compares, and the final weights differ.  The
    budget stops every run after two of its three rounds."""
    public = {(o, f) for o, f, cls in ledger() if cls == "public"}
    algos = ",".join(ALGORITHMS)
    outs = []
    for extra in (0, 1):  # the second data set overwrites the first's files
        cfg = _idx_config(tmp_path / "data", extra)
        outs.append(run_and_compare(cfg, tmp_path / str(extra), algos))
    capsys.readouterr()
    a, b = outs
    assert public <= set(a)
    assert {k: a[k] for k in public} == {k: b[k] for k in public}
    assert a["summary.json", "per_seed.<seed>.stopped_early"] == ["true", "true"]
    for key in [("comparison.csv", "weights_sha256"),
                ("summary.json", "per_seed.<seed>.weights_sha256")]:
        assert all(x != y for x, y in zip(a[key], b[key], strict=True))
