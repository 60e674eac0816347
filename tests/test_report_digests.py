"""The comparison that ``scripts/report_digests.py --compare`` prints."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "report_digests.py"
_spec = importlib.util.spec_from_file_location("report_digests", SCRIPT)
report_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_digests)


def test_numeric_diff_takes_the_largest_gaps_and_names_shape_changes():
    before = {"alphas": [1.0, 2.0, -4.0], "config": {"seed": 3, "mode": "gibbs"}, "ess": None}
    after = {"alphas": [1.0, 2.5, -4.0], "config": {"seed": 3, "mode": "gibbs"}, "ess": None}
    assert report_digests._numeric_diff(before, after) == (0.5, 0.2, [])
    changed = {"alphas": [1.0, 2.0], "config": {"seed": 3, "mode": "classic"}, "extra": 1}
    _, _, found = report_digests._numeric_diff(before, changed)
    assert sorted(found) == [
        "keys differ at $: -ess +extra",
        "leaves differ at $.config.mode",
        "lengths 3 and 2 at $.alphas",
    ]


def _keep(directory: Path, reports: dict) -> None:
    """A ``--keep`` directory holding *reports*, keyed by run."""
    directory.mkdir()
    lines = []
    for run, report in reports.items():
        text = json.dumps(report)
        (directory / report_digests._report_name(run)).write_text(text)
        lines.append(f"{' '.join(run)} 0 {hashlib.sha256(text.encode()).hexdigest()}\n")
    (directory / "digests.txt").write_text("".join(lines))


def test_compare_prints_the_numeric_gap_of_each_changed_report(tmp_path, capsys):
    same, moved = ("1", "attend-wide", "0", "attend"), ("-", "-", "-", "demo")
    _keep(tmp_path / "base", {same: {"x": [1.0]}, moved: {"x": [1.0, 3.0]}})
    _keep(tmp_path / "head", {same: {"x": [1.0]}, moved: {"x": [1.0, 3.0 + 3e-15]}})
    assert report_digests.compare(tmp_path / "base", tmp_path / "head") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("- - - demo: exit 0 -> 0")
    assert out[1] == "    largest difference 3.11e-15 absolute, 1.04e-15 relative; keys and array lengths match"
    assert out[2] == (
        "2 runs compared; 1 changed their digest; 0 that exited 0 no longer do; "
        "0 with other keys, lengths or non-numeric leaves; largest difference 3.11e-15"
    )


def test_compare_summary_counts_reshaped_reports_and_the_largest_gap(tmp_path, capsys):
    # over the changed reports both sides kept: one moved by roundoff, one
    # by 0.25 with a key added; the report that stopped exiting 0 has none
    roundoff, reshaped, broken = (("1", "w", "0", command) for command in ("oracle", "estimate", "attend"))
    _keep(tmp_path / "base", {roundoff: {"x": [1.0]}, reshaped: {"x": [2.0]}, broken: {"x": [9.0]}})
    _keep(tmp_path / "head", {roundoff: {"x": [1.0 + 2e-16]}, reshaped: {"x": [2.25], "y": 1}})
    assert report_digests.compare(tmp_path / "base", tmp_path / "head") == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "3 runs compared; 3 changed their digest; 1 that exited 0 no longer do; "
        "1 with other keys, lengths or non-numeric leaves; largest difference 0.25"
    )


def test_compare_counts_changed_digests_apart_from_exit_codes(tmp_path, capsys):
    # a refusal that moves from exit 2 to exit 3 with the same message keeps
    # its digest; a report that stops exiting 0 changes its digest and fails
    # the comparison
    (tmp_path / "base").write_text("1 w 0 oracle 0 aa\n1 w 0 estimate 2 -\n1 w 0 attend 0 bb\n- - - demo 0 cc\n")
    (tmp_path / "head").write_text("1 w 0 oracle 0 aa\n1 w 0 estimate 3 -\n1 w 0 attend 4 -\n- - - demo 0 dd\n")
    assert report_digests.compare(tmp_path / "base", tmp_path / "head") == 1
    assert capsys.readouterr().out.splitlines() == [
        "1 w 0 estimate: exit 2 -> 3, sha256 - -> -",
        "1 w 0 attend: exit 0 -> 4, sha256 bb -> -",
        "- - - demo: exit 0 -> 0, sha256 cc -> dd",
        "4 runs compared; 2 changed their digest; 1 that exited 0 no longer do",
    ]


def test_a_refusal_is_digested_by_its_message(tmp_path):
    out = tmp_path / "out.json"

    def refusing(message):
        def main(argv):
            print("walkthrough")  # stdout is not compared
            sys.stderr.write(message)
            return 2

        return main

    def reporting(argv):
        out.write_text("{}")
        sys.stderr.write("a warning\n")
        return 0

    field = report_digests._outcome(refusing("input error: n: required\n"), [], out)
    other = report_digests._outcome(refusing("input error: d: must be >= 1\n"), [], out)
    assert field == (2, hashlib.sha256(b"input error: n: required\n").hexdigest())
    assert other[0] == 2 and other[1] != field[1]
    assert report_digests._outcome(reporting, [], out) == (0, hashlib.sha256(b"{}").hexdigest())
