"""The benchmark's own tests: a wrong program output must be counted as a
failed operation, never passed over.

    PYTHONPATH=src python3 -m pytest -q perfbench

The program is patched only inside this process, at tiny sizes; the
children the benchmark starts run the unpatched program.
"""

import contextlib
import io
import json
import random

import checks
import run
import workloads
from girardlab import cli, enumeration


def _tiny_graph(tmp_path):
    graph = workloads.dense_graph(random.Random(5), 2, 2)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    return str(path)


def _powersum_report(tmp_path, m, n):
    out = tmp_path / "report.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["powersum", "--m", str(m), "--n", str(n), "--method", "all",
                         "--out", str(out)])
    return code, stdout.getvalue(), out.read_text()


def test_reference_checks_pass_on_the_program(tmp_path):
    specs = [("ell_and_walk_sums", _tiny_graph(tmp_path)), ("all_loops_at_ones", 3, 2),
             ("lhs_at_ones", 3, 2)]
    assert checks.reference_problems(specs) == []


def test_off_by_one_closed_walk_sum_fails_its_item(tmp_path, monkeypatch):
    path = _tiny_graph(tmp_path)
    original = enumeration.closed_walk_sum
    monkeypatch.setattr(enumeration, "closed_walk_sum",
                        lambda g, q, t: original(g, q, t) + 1)
    refs = [checks.reference_problems([("ell_and_walk_sums", path)]), []]
    assert refs[0] and all("traces give" in p for p in refs[0])

    calls = [run.Call(item, []) for _ in range(3) for item in (0, 1)]
    failed = run.failed_calls(calls, refs)
    assert len(failed) == 3 and {c.item for c in failed} == {0}


def test_wrong_powersum_value_is_a_failed_operation(tmp_path):
    item = workloads.Item(("powersum", "--m", "3", "--n", "4", "--method", "all"), 1,
                          (("powersum_values", 3, 4),))
    code, stdout, text = _powersum_report(tmp_path, 3, 4)
    assert checks.report_problems(item, code, stdout, text) == []

    right = 1 + 8 + 27 + 64
    patched = text.replace(f"value direct = {right}", f"value direct = {right + 1}")
    assert patched != text
    problems = checks.report_problems(item, code, stdout, patched)
    assert problems == ["powersum direct value is off by 1"]
    assert run.failed_calls([run.Call(0, problems)], [[]])


def test_fail_verdict_and_changed_report_are_problems(tmp_path):
    item = workloads.Item(("powersum", "--m", "3", "--n", "4", "--method", "all"), 1)
    code, stdout, text = _powersum_report(tmp_path, 3, 4)
    failing = stdout.replace("result: PASS (1/1 checks)", "result: FAIL (0/1 checks)")
    assert len(checks.report_problems(item, 1, failing, text)) == 2
    assert checks.report_key(text) == checks.report_key(
        text.replace('"elapsed_ms": ', '"elapsed_ms": 9'))
    assert checks.report_key(text) != checks.report_key(text.replace('"trials": 1', '"trials": 2'))


def test_invocation_in_a_fresh_process_is_checked_and_measured(tmp_path):
    item = workloads.Item(("verify", "theorem1", "--m", "2", "--r", "1"), 1)
    first: dict = {}
    call = run.invoke(0, item, tmp_path, "run", first)
    assert call.problems == []
    assert call.measured["main_s"] > 0 and call.measured["rss_kb"] > 0

    wrong = workloads.Item(item.argv, 2)  # expects two checks where there is one
    assert run.invoke(0, wrong, tmp_path, "run", first).problems

    # m = 0 is refused with a non-zero exit (today a ValueError traceback);
    # the call still has its measurement and counts as failed
    refused = run.invoke(1, workloads.Item(("verify", "theorem1", "--m", "0", "--r", "1"), 1),
                         tmp_path, "run", first)
    assert refused.problems[0].startswith("exit code ") and refused.measured is not None


def test_traced_counts_repeat(tmp_path):
    item = workloads.Item(("involution", "audit", "--graph", _tiny_graph(tmp_path),
                           "--r", "2"), 1)
    passes = [run.run_pass([item], tmp_path, "trace", {}) for _ in range(2)]
    assert all(c.problems == [] for p in passes for c in p)
    values, unequal = run.per_layer(passes, 0.0)
    assert unequal == []
    assert values["involution.pairs"] == values["involution.bad_pairs"] + values["involution.good_pairs"]
    assert values["enumeration.subdigraph_passes"] > 0 and values["poly.mul_calls"] > 0
