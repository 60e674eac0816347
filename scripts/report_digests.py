"""SHA-256 of every report the CLI writes for the benchmark's documents.

Runs ``oracle``, ``estimate`` and ``attend`` through ``coalattn.cli.main``
on every document of every ``perfbench/workloads.py`` workload for seeds
1-3, each with its workload's settings as the ``--config`` file, then on
each explicit spin-system document of ``SPIN_SYSTEMS``, each document of
``OVERFLOWS`` (one per float64 overflow guard, so each refusal states its
bound) and each document of ``SHAPES`` (one per refusal of a JSON object's
shape) under the default settings, and then ``demo --out``.  That is 178
runs.  Prints one line per run::

    seed workload index command exit sha256

where sha256 is the digest of the report of a run that exits 0, and of
the message it writes to stderr (one line naming the field or limit, with
no path in it) for a run that exits otherwise, so a refusal whose wording
changes, or that turns into another refusal with the same exit code, shows
as well.  ``-`` stands for the seed of a spin-system, overflow or shape run
(whose workload is ``spins``, ``overflow`` or ``shapes`` and whose index is
the document's name) and for the seed, workload and index of ``demo``.
The same source tree always prints the same lines, so two trees' outputs
show which reports and refusals changed bytes.

    python scripts/report_digests.py [--src DIR] [--keep DIR] > digests.txt
    python scripts/report_digests.py --compare BASE HEAD

``--src`` picks the ``coalattn`` sources to run (default: this checkout's
``src``); the documents always come from this checkout's ``perfbench``,
which the script only reads.  ``--keep DIR`` also writes every report into
DIR, named after its run, and the printed lines into ``DIR/digests.txt``.

``--compare`` takes two outputs, each a file of printed lines or a
``--keep`` directory.  It prints every run of HEAD whose exit code or
digest differs from BASE's for the same run, then a summary line: the runs
compared, how many of them changed their digest, and how many that exited 0
no longer do.  It exits 1 only when a run that exited 0 in BASE exits
otherwise (or is missing) in HEAD: reports and refusals that change bytes
on purpose still pass.  When both sides kept their reports, it also prints,
for every changed report, the largest absolute and relative difference over
its numeric leaves, and whether the two reports have the same keys (naming
each key removed or added) and the same array lengths; its summary line
then adds how many changed reports differ in keys, array lengths or
non-numeric leaves, and the largest absolute difference over all of them,
so a change of roundoff alone shows in its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
COMMANDS = ("oracle", "estimate", "attend")

# The benchmark's documents carry no fields or couplings, so these cover the
# solver-only attend and the oracle of an explicit spin system: fields only,
# couplings only, both, and a table game with couplings.
_FIELDS = [0.423, -0.711, 0.512]
_COUPLINGS = [[0.0, 0.466, -0.312], [0.466, 0.0, 0.278], [-0.312, 0.278, 0.0]]
_TABLE = [0.0, 0.2, 0.5, 1.2, 0.4, 0.8, 1.0, 1.8]
SPIN_SYSTEMS = {
    "fields": {"fields": _FIELDS},
    "couplings": {"couplings": _COUPLINGS},
    "both": {"fields": _FIELDS, "couplings": _COUPLINGS},
    "table-couplings": {"characteristic_table": _TABLE, "couplings": _COUPLINGS},
}

# One document, with its own n, past each float64 bound the engine checks
# before it computes: the gate logits, the table's differences, the
# multi-head outputs, the local fields, the coalition norms and the spin
# energies (which only the oracle refuses; attend solves them).
_HEAD = {"value_projection": [[2.0]], "gate_weights": [1.0], "gate_bias": 0.0}
OVERFLOWS = {
    "gate-logits": {"n": 2, "embeddings": [[1], [2]], "value_projection": [[1]], "gate_weights": [1e308], "gate_bias": 0},
    "table-differences": {"n": 2, "characteristic_table": [0, 1e308, 1e308, -1e308]},
    "output-projection": {"n": 1, "embeddings": [[1.0]], "multi_head": {"heads": [_HEAD], "output_projection": [[1e308]]}},
    "local-fields": {"n": 3, "couplings": [[0.0, 1e308, 1e308], [1e308, 0.0, 1e308], [1e308, 1e308, 0.0]]},
    "coalition-norms": {
        "n": 2, "embeddings": [[1e200], [1e200]], "value_projection": [[1e200]], "gate_weights": [1.0], "gate_bias": 0,
    },
    "spin-energies": {"n": 3, "fields": [1e308] * 3},
}

# One document per refusal of a JSON object's shape (a value that is not an
# object, an unknown key or a missing key) of the document, a head and the
# multi_head block.  A document that is not an object cannot be written
# here, since every document gets its schema_version merged in.
_ONE = {"n": 1, "embeddings": [[1.0]]}
SHAPES = {
    "document-unknown-key": {**_ONE, **_HEAD, "x": 1},
    "head-missing-key": {**_ONE, "value_projection": [[2.0]], "gate_bias": 0.0},
    "head-not-an-object": {**_ONE, "multi_head": {"heads": [1], "output_projection": [[1.0]]}},
    "head-unknown-key": {**_ONE, "multi_head": {"heads": [{**_HEAD, "x": 1}], "output_projection": [[1.0]]}},
    "multi-head-not-an-object": {**_ONE, "multi_head": [_HEAD]},
    "multi-head-unknown-key": {**_ONE, "multi_head": {"heads": [_HEAD], "output_projection": [[1.0]], "x": 1}},
    "multi-head-missing-key": {**_ONE, "multi_head": {"heads": [_HEAD]}},
}


def _outcome(main, argv: list[str], out: Path) -> tuple[int, str]:
    """Run *argv*, which writes its report to *out*, through *main*: its exit
    code and the sha256 of its report, or of what it wrote to stderr (its
    refusal) when it exits non-zero.  What it prints to stdout (the demo
    walkthrough) is not compared."""
    out.unlink(missing_ok=True)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    written = out.read_bytes() if code == 0 else stderr.getvalue().encode()
    return code, hashlib.sha256(written).hexdigest()


def _report_name(run: tuple[str, ...]) -> str:
    return "_".join(run) + ".json"


def digest_lines(src: Path, keep: Path | None = None):
    """Yield one ``seed workload index command exit sha256`` line per run,
    copying each report into *keep* when given."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    from coalattn import cli
    from coalattn.inputs import SCHEMA_VERSION
    from workloads import WORKLOADS, documents

    if Path(cli.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"report_digests: imported coalattn from {cli.__file__}, not from {src}")
    with tempfile.TemporaryDirectory() as tmp:
        doc_path, cfg_path, out = (Path(tmp) / name for name in ("doc.json", "cfg.json", "out.json"))

        def line(run: tuple[str, ...], argv: list[str]) -> str:
            code, digest = _outcome(cli.main, argv + ["--out", str(out)], out)
            if keep is not None and code == 0:
                (keep / _report_name(run)).write_bytes(out.read_bytes())
            return f"{' '.join(run)} {code} {digest}"

        for seed in SEEDS:
            for name, workload in WORKLOADS.items():
                for index, (text, settings) in enumerate(documents(workload, seed)):
                    doc_path.write_bytes(text)
                    cfg_path.write_text(json.dumps(settings))
                    for command in COMMANDS:
                        argv = [command, "--input", str(doc_path), "--config", str(cfg_path)]
                        yield line((str(seed), name, str(index), command), argv)
        named = [("spins", name, {"n": 3, **system}) for name, system in SPIN_SYSTEMS.items()]
        named += [("overflow", name, doc) for name, doc in OVERFLOWS.items()]
        named += [("shapes", name, doc) for name, doc in SHAPES.items()]
        for workload, name, doc in named:
            doc_path.write_text(json.dumps({"schema_version": SCHEMA_VERSION, **doc}))
            for command in COMMANDS:
                yield line(("-", workload, name, command), [command, "--input", str(doc_path)])
        yield line(("-", "-", "-", "demo"), ["demo"])


def _runs(path: Path) -> dict[tuple[str, ...], tuple[str, str]]:
    runs = {}
    for line in (path / "digests.txt" if path.is_dir() else path).read_text().splitlines():
        *run, code, digest = line.split()
        runs[tuple(run)] = (code, digest)
    return runs


def _numeric_diff(before, after, path: str = "$") -> tuple[float, float, list[str]]:
    """The largest absolute and relative difference over the numeric leaves
    two reports share, and the paths where their keys, array lengths or
    other leaves differ; a key difference names each key that *after*
    removes (``-key``) and adds (``+key``)."""
    if isinstance(before, dict) and isinstance(after, dict):
        moved = [f"-{key}" for key in sorted(before.keys() - after.keys())]
        moved += [f"+{key}" for key in sorted(after.keys() - before.keys())]
        found = [f"keys differ at {path}: {' '.join(moved)}"] if moved else []
        diffs = [_numeric_diff(before[key], after[key], f"{path}.{key}") for key in before.keys() & after.keys()]
    elif isinstance(before, list) and isinstance(after, list):
        found = [] if len(before) == len(after) else [f"lengths {len(before)} and {len(after)} at {path}"]
        diffs = [_numeric_diff(b, a, f"{path}[{i}]") for i, (b, a) in enumerate(zip(before, after))]
    elif all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (before, after)):
        gap = abs(after - before)
        scale = max(abs(before), abs(after))
        return gap, gap / scale if scale else 0.0, []
    else:
        return 0.0, 0.0, [] if before == after else [f"leaves differ at {path}"]
    return (
        max((d[0] for d in diffs), default=0.0),
        max((d[1] for d in diffs), default=0.0),
        found + [entry for d in diffs for entry in d[2]],
    )


def compare(base_path: Path, head_path: Path) -> int:
    """Print the runs whose exit code or digest changed, with numeric
    differences where both sides kept their reports, and the counts of runs
    compared, of changed digests and of runs that stopped exiting 0, with
    the changed reports' shape changes and largest difference when both
    sides are kept directories; 1 if a run that exited 0 in BASE did not in
    HEAD."""
    base, head = _runs(base_path), _runs(head_path)
    changed = broken = reshaped = 0
    largest = 0.0
    for run, before in base.items():
        after = head.get(run, ("missing", "-"))
        if after != before:
            print(f"{' '.join(run)}: exit {before[0]} -> {after[0]}, sha256 {before[1]} -> {after[1]}")
            changed += after[1] != before[1]
            broken += before[0] == "0" and after[0] != "0"
            reports = [path / _report_name(run) for path in (base_path, head_path)]
            if all(report.is_file() for report in reports):
                gap, relative, found = _numeric_diff(*(json.loads(report.read_text()) for report in reports))
                largest, reshaped = max(largest, gap), reshaped + bool(found)
                shape = "keys and array lengths match" if not found else "; ".join(found[:5])
                print(f"    largest difference {gap:.3g} absolute, {relative:.3g} relative; {shape}")
    for run in head.keys() - base.keys():
        print(f"{' '.join(run)}: new run, exit {head[run][0]}")
    summary = f"{len(base)} runs compared; {changed} changed their digest; {broken} that exited 0 no longer do"
    if base_path.is_dir() and head_path.is_dir():
        summary += f"; {reshaped} with other keys, lengths or non-numeric leaves; largest difference {largest:.3g}"
    print(summary)
    return 1 if broken else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="the coalattn sources to run")
    parser.add_argument("--keep", type=Path, help="also write every report and the printed lines here")
    parser.add_argument(
        "--compare", nargs=2, type=Path, metavar=("BASE", "HEAD"), help="compare two outputs or kept directories instead"
    )
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    lines = []
    if args.keep is not None:
        args.keep.mkdir(parents=True, exist_ok=True)
    for line in digest_lines(args.src, args.keep):
        print(line, flush=True)
        lines.append(line)
    if args.keep is not None:
        (args.keep / "digests.txt").write_text("".join(f"{line}\n" for line in lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
