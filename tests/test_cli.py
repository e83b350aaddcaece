"""End-to-end tests for the command suite."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as hst

from listlab import dmtf, harness
from listlab.cli import main


def test_distance_csv_golden(tmp_path, capsys):
    seq = tmp_path / "seq.json"
    seq.write_text("[1, 2, 1]")
    assert main(["distance", str(seq), "--ell", "3"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("# config ")
    assert lines[1] == "index,distance"
    assert lines[2:] == ["1,3", "2,3", "3,2", "total,8"]


def test_distance_json_format(tmp_path, capsys):
    seq = tmp_path / "seq.json"
    seq.write_text("[1, 1]")
    assert main(["distance", str(seq), "--ell", "5", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out.splitlines()[1])
    assert payload == {"per_index": [5, 1], "total": 6}


def test_distance_more_examples(tmp_path, capsys):
    seq = tmp_path / "seq.json"
    seq.write_text("[1, 2, 3, 2]")
    assert main(["distance", str(seq), "--ell", "3"]) == 0
    assert "total,11" in capsys.readouterr().out


def test_merge_ratio_table(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["merge-ratio", "--p", "2", "--ell", "8",
                 "--r", "10", "--s", "10", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1] == "r,s,avg_hi,avg_lo,ratio,limit,gap"
    rows = [l.split(",") for l in lines[2:]]
    assert [r[0] for r in rows] == ["1", "2", "5", "10"]
    assert all(r[5] == "26/7" for r in rows)
    # the gap column shrinks as r and s grow
    from fractions import Fraction
    gaps = [Fraction(r[6]) for r in rows]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_merge_ratio_converges_at_full_scale(tmp_path):
    from fractions import Fraction

    out = tmp_path / "table.csv"
    assert main(["merge-ratio", "--p", "2", "--ell", "8",
                 "--r", "50", "--s", "50", "--out", str(out)]) == 0
    last = out.read_text().strip().splitlines()[-1].split(",")
    assert last[0] == "50"
    ratio, limit = Fraction(last[4]), Fraction(last[5])
    assert limit == Fraction(26, 7)
    assert abs(limit - ratio) <= limit / 10


def test_merge_ratio_rejects_bad_divisibility(capsys):
    assert main(["merge-ratio", "--p", "2", "--ell", "7",
                 "--r", "1", "--s", "1"]) == 1


def test_dmtf_run_outputs(tmp_path):
    wl = tmp_path / "wl.json"
    wl.write_text("[[2], [2]]")
    out = tmp_path / "history.ndjson"
    costs = tmp_path / "costs.csv"
    assert main(["dmtf", "--workload", str(wl), "--ell", "2",
                 "--schedule", '{"kind": "round_robin"}',
                 "--out", str(out), "--costs", str(costs)]) == 0
    events = out.read_text().splitlines()
    assert events[0].startswith("# config ")
    meta = json.loads(events[1])
    assert meta["type"] == "meta" and meta["completed"]
    cost_lines = costs.read_text().splitlines()
    assert cost_lines[1] == "op_level,item_level,actual,n_completed,linearizable"
    op_level, item_level, actual, n, lin = cost_lines[2].split(",")
    assert (op_level, item_level, n, lin) == ("3", "4", "2", "true")


def test_dmtf_replay_byte_identical(tmp_path):
    wl = tmp_path / "wl.json"
    wl.write_text("[[2, 1], [1, 2]]")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.ndjson"
        assert main(["dmtf", "--workload", str(wl), "--ell", "3",
                     "--schedule", '{"kind": "random", "seed": 31}',
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_dmtf_sequential_schedule_spec(tmp_path, capsys):
    wl = tmp_path / "wl.json"
    wl.write_text("[[2], [2]]")
    costs = tmp_path / "c.csv"
    assert main(["dmtf", "--workload", str(wl), "--ell", "2",
                 "--schedule", '{"kind": "sequential"}',
                 "--out", str(tmp_path / "h.ndjson"), "--costs", str(costs)]) == 0
    assert costs.read_text().splitlines()[2].startswith("3,3,")


def test_explore_default_bounds_clean(tmp_path):
    out = tmp_path / "explore.csv"
    assert main(["explore", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "states,histories,bound_hits,violations"
    states, histories, bound_hits, violations = lines[2].split(",")
    assert violations == "0" and int(states) > 1000


def test_explore_single_process(capsys):
    assert main(["explore", "--p", "1"]) == 0
    data = capsys.readouterr().out.splitlines()[2].split(",")
    assert data[1] == "1"  # exactly one schedule class


def test_explore_corruption_flags_violations(capsys):
    assert main(["explore", "--inject-corruption"]) == 4
    out = capsys.readouterr().out
    assert out.splitlines()[2].split(",")[3] != "0"


@pytest.mark.parametrize("argv, counts", [
    (["--ell", "300", "--requests", "1", "--budget", "60"], "1891,0,61,0"),
    (["--ell", "3", "--phi", "400", "--requests", "1"], "2189,4,0,0"),
], ids=["handles-past-255", "phi-past-255"])
def test_explore_key_holds_values_past_one_byte(argv, counts, capsys):
    # the explorer's state key must widen its slots to the largest handle
    # and phase count, not fail on them
    assert main(["explore"] + argv) == 0
    assert capsys.readouterr().out.splitlines()[2] == counts


def test_explore_counts_do_not_depend_on_the_budget(capsys):
    # every slot of the state key is bounded by the workload, so the budget
    # no longer sets the slot width: the default exploration keys in 1-byte
    # slots and counts the same at either budget
    drv = harness._Driver(dmtf.init([1, 2], p=2), ((2,), (2,)))
    assert harness._KeyBuffer(drv).typecode == "B"
    rows = []
    for budget in ("200", "400"):
        assert main(["explore", "--budget", budget]) == 0
        rows.append(capsys.readouterr().out.splitlines()[1:])
    assert rows[0] == rows[1] == ["states,histories,bound_hits,violations",
                                  "2021,4,0,0"]


def test_findvalue_deterministic(capsys):
    assert main(["findvalue", "--mode", "deterministic", "--n", "10"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[-1] == "10,30,20,3/2"


def test_findvalue_exact(capsys):
    assert main(["findvalue", "--mode", "exact", "--n", "1"]) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "1,23/8,2,23/16"


def test_findvalue_mc_small(capsys):
    assert main(["findvalue", "--mode", "mc", "--tapes", "50000",
                 "--seed", "3"]) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1].endswith(",true")


def test_findvalue_adversary(capsys):
    assert main(["findvalue", "--mode", "adversary"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[-1] == "min,,,3"
    assert len(rows) == 2 + 8 + 1


def test_findvalue_tape_mode(capsys):
    assert main(["findvalue", "--mode", "tape", "--n", "2", "--seed", "7"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    n, reads = rows[-1].split(",")
    assert n == "2" and 4 <= int(reads) <= 8


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n": 10}')
    assert main(["findvalue", "--mode", "deterministic",
                 "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "10,30,20,3/2" in out


def _rejected(argv, capsys):
    """main returns EXIT_BAD_ARGS with a one-line message, not a traceback."""
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    return err[0]


def test_distance_rejects_bad_items(tmp_path, capsys):
    seq = tmp_path / "seq.json"
    for text in ("[1, 0, 2]", "[1, 1, -3]", "[1, 2.5]", '[1, "2"]', "[true]",
                 "{}", "[1, 2"):
        seq.write_text(text)
        _rejected(["distance", str(seq), "--ell", "3"], capsys)
    seq.write_text("[1, 2]")
    _rejected(["distance", str(seq), "--ell", "0"], capsys)
    _rejected(["distance", str(tmp_path / "missing.json"), "--ell", "3"], capsys)


def test_dmtf_rejects_bad_schedule_pids(tmp_path, capsys):
    wl = tmp_path / "wl.json"
    wl.write_text("[[2], [2]]")
    base = ["dmtf", "--workload", str(wl), "--ell", "2"]
    for spec in ("[3]", "[1, 3]", "[0, 0, 0, 0, 0, 0, 0, 0]", "[-1]", "[1.5]",
                 '{"kind": "explicit", "pids": [1, 3]}', '{"kind": "bogus"}',
                 '{"kind": "random", "seed": "x"}',
                 '{"kind": "sequential", "merge": [[1, 1], [3, 1]]}',
                 "not json"):
        msg = _rejected(base + ["--schedule", spec], capsys)
        if spec.startswith("[") and "pids" not in spec:
            assert "from 1 to 2" in msg
    # a null seed falls back to --seed, and a valid explicit schedule still
    # runs to completion
    assert main(base + ["--schedule", '{"kind": "random", "seed": null}',
                        "--out", str(tmp_path / "r.ndjson")]) == 0
    assert main(base + ["--schedule", json.dumps([1, 2] * 100),
                        "--out", str(tmp_path / "h.ndjson")]) == 0


def test_dmtf_rejects_merge_entries_that_are_not_integers(tmp_path, capsys):
    # each spec would pass the schedule check if its entries were truncated
    # to [[1, 1], [1, 2], [2, 1], [2, 2]], a valid merge of this workload
    wl = tmp_path / "wl.json"
    wl.write_text("[[2, 1], [1, 2]]")
    base = ["dmtf", "--workload", str(wl), "--ell", "3",
            "--out", str(tmp_path / "h.ndjson")]
    for merge in ("[[1.7, 1], [true, 2], [\"2\", 1], [2, 2.9]]",
                  "[[1.0, 1], [1, 2], [2, 1], [2, 2]]",
                  "[[true, 1], [1, 2], [2, 1], [2, 2]]",
                  "[[1, \"1\"], [1, 2], [2, 1], [2, 2]]"):
        spec = f'{{"kind": "sequential", "merge": {merge}}}'
        _rejected(base + ["--schedule", spec], capsys)
    spec = '{"kind": "sequential", "merge": [[1, 1], [1, 2], [2, 1], [2, 2]]}'
    assert main(base + ["--schedule", spec]) == 0


def test_unwritable_output_paths_are_bad_input(tmp_path, capsys):
    missing = str(tmp_path / "no-such-dir" / "x")
    _rejected(["findvalue", "--mode", "exact", "--out", missing], capsys)
    wl = tmp_path / "wl.json"
    wl.write_text("[[2], [2]]")
    dmtf = ["dmtf", "--workload", str(wl), "--ell", "2"]
    # no output is written when either path cannot be: a new --out file is
    # not left behind, an existing one keeps its bytes, stdout stays empty
    out = tmp_path / "h.ndjson"
    _rejected(dmtf + ["--out", str(out), "--costs", missing], capsys)
    assert not out.exists()
    out.write_text("earlier run\n")
    _rejected(dmtf + ["--out", str(out), "--costs", missing], capsys)
    assert out.read_text() == "earlier run\n"
    assert main(dmtf + ["--costs", missing]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    costs = tmp_path / "c.csv"
    _rejected(dmtf + ["--out", missing, "--costs", str(costs)], capsys)
    assert not costs.exists()


def test_dmtf_rejects_bad_workload_and_bounds(tmp_path, capsys):
    wl = tmp_path / "wl.json"
    for text in ("[[2], [0]]", "[2, 1]", "[]", "[[2], [1.5]]"):
        wl.write_text(text)
        _rejected(["dmtf", "--workload", str(wl), "--ell", "2"], capsys)
    wl.write_text("[[2], [2]]")
    for extra in (["--ell", "1"], ["--ell", "2", "--phi", "0"],
                  ["--ell", "2", "--budget", "0"]):
        _rejected(["dmtf", "--workload", str(wl)] + extra, capsys)


def test_dmtf_incomplete_run_names_what_ran_out(tmp_path, capsys):
    wl = tmp_path / "wl.json"
    wl.write_text("[[2], [2]]")
    base = ["dmtf", "--workload", str(wl), "--ell", "2",
            "--out", str(tmp_path / "h.ndjson")]
    assert main(base + ["--schedule", json.dumps([1, 2] * 7)]) == 5
    assert capsys.readouterr().err == "schedule exhausted with pending operations\n"
    assert main(base + ["--schedule", json.dumps([1, 2] * 7),
                        "--budget", "10"]) == 5
    assert capsys.readouterr().err == "step bound exceeded with pending operations\n"
    assert main(base + ["--budget", "10"]) == 5
    assert capsys.readouterr().err == "step bound exceeded with pending operations\n"


def test_explore_rejects_bad_bounds(capsys):
    for extra in (["--p", "0"], ["--ell", "1"], ["--item", "0"],
                  ["--budget", "0"], ["--phi", "0"], ["--requests", "-1"]):
        _rejected(["explore"] + extra, capsys)


def test_config_file_rejects_unreadable(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1]")
    for path in (cfg, tmp_path / "missing.json"):
        _rejected(["findvalue", "--mode", "exact", "--config", str(path)], capsys)


def test_argparse_errors_exit_1_with_one_line(capsys):
    for argv in ([], ["bogus"], ["explore", "--ell", "abc"],
                 ["explore", "--bogus"], ["findvalue"],
                 ["findvalue", "--mode", "bogus"]):
        _rejected(argv, capsys)


@pytest.mark.parametrize("argv", [
    ["merge-ratio", "--p", "1", "--ell", "8", "--r", "1", "--s", "1"],
    ["merge-ratio", "--p", "0", "--ell", "8", "--r", "1", "--s", "1"],
    ["merge-ratio", "--p", "2", "--ell", "8", "--r", "0", "--s", "1"],
    ["merge-ratio", "--p", "2", "--ell", "-4", "--r", "1", "--s", "1"],
    ["findvalue", "--mode", "exact", "--n", "0"],
    ["findvalue", "--mode", "mc", "--tapes", "0"],
    ["findvalue", "--mode", "deterministic", "--n", "-1"],
    ["findvalue", "--mode", "tape", "--tape", "zz"],
    ["findvalue", "--mode", "tape", "--n", "3", "--tape", "00"],
], ids=lambda argv: " ".join(argv[1:]))
def test_out_of_range_values_rejected(argv, capsys):
    _rejected(argv, capsys)


@pytest.mark.parametrize("config", ['{"ell": "3"}', '{"budget": 2.5}',
                                    '{"p": true}', '{"requests": null}',
                                    '{"inject_corruption": 1}'])
def test_config_values_are_typed(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    _rejected(["explore", "--config", str(cfg)], capsys)


def test_explicit_flags_win_over_config_in_any_syntax(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n": 5, "mode": "exact", "no_such_flag": [1]}')
    for flag in (["--n=2"], ["--n", "2"], ["--n=2", "--mode=deterministic"]):
        assert main(["findvalue", "--mode", "deterministic", "--config",
                     str(cfg)] + flag) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "2,6,4,3/2"
    # every value is parsed, also one that the command line overrides
    cfg.write_text('{"n": 0}')
    _rejected(["findvalue", "--mode", "deterministic", "--config", str(cfg),
               "--n", "2"], capsys)


def test_config_never_replaces_a_positional(tmp_path, capsys):
    seq, other, cfg = (tmp_path / n for n in ("seq.json", "other.json", "cfg.json"))
    seq.write_text("[1, 1]")
    other.write_text("[2, 2, 2]")
    cfg.write_text(json.dumps({"sequence": str(other), "ell": 5}))
    assert main(["distance", str(seq), "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "total,6"


def test_config_schedule_object_matches_command_line(tmp_path):
    wl = tmp_path / "wl.json"
    wl.write_text("[[2, 1], [1, 2]]")
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"schedule": {"kind": "random", "seed": 3}}')
    base = ["dmtf", "--workload", str(wl), "--ell", "3"]
    a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    assert main(base + ["--config", str(cfg), "--out", str(a)]) == 0
    assert main(base + ["--schedule", '{"kind": "random", "seed": 3}',
                        "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# -- any argv: a documented exit code, never a traceback ---------------------------

# the integers each command's flags accept, kept small so that every run is quick
_INT_FLAGS = {
    "distance": {"ell": (1, 3), "seed": (-2, 2)},
    "merge-ratio": {"p": (2, 2), "ell": (1, 3), "r": (1, 2), "s": (1, 2)},
    "dmtf": {"ell": (2, 3), "phi": (1, 2), "budget": (1, 100), "seed": (-2, 2)},
    "explore": {"p": (1, 2), "ell": (2, 3), "phi": (1, 2), "requests": (0, 1),
                "item": (1, 4), "budget": (1, 400)},
    "findvalue": {"n": (1, 3), "tapes": (1, 300), "seed": (-2, 2)},
}
_TEXT_FLAGS = {
    "distance": {"format": ["csv", "json", "xml"]},
    "dmtf": {"schedule": ['{"kind": "round_robin"}', '{"kind": "random"}',
                          '{"kind": "sequential"}', "[1, 2, 1, 2]", "[3]",
                          '{"kind": "bogus"}', "not json",
                          '{"kind": "sequential", "merge": [[1, 1]]}']},
    "explore": {"inject_corruption": [True, False]},
    "findvalue": {"mode": ["deterministic", "exact", "mc", "tape", "adversary",
                           "bogus"],
                  "tape": ["", "00", "00ff00", "zz", "0"]},
}
# given in every case: the required flags, and --tapes, without which mc mode
# would sample its default million tapes
_ALWAYS_GIVEN = {"ell", "p", "r", "s", "mode", "tapes"}
# never an integer on the command line; never a JSON integer in a config file
_MISTYPED_TEXT = ["abc", "2.5", "true", "", "0x3"]
_MISTYPED_JSON = [2.5, True, None, [1]]


@hst.composite
def _argvs(draw):
    """A command whose flags are each absent or given a value, on the
    command line or in a config file.  Every integer is valid, except in
    about half the cases one flag's, which is out of range or mistyped.
    Returns (argv without the files, config, whether a value is bad)."""
    command = draw(hst.sampled_from(sorted(_INT_FLAGS)))
    ints = _INT_FLAGS[command]
    bad_flag = draw(hst.one_of(hst.none(), hst.sampled_from(sorted(ints))))
    argv, config = [command], {}
    flags = [(name, "int", bounds) for name, bounds in ints.items()]
    flags += [(name, "text", values)
              for name, values in _TEXT_FLAGS.get(command, {}).items()]
    for name, kind, spec in flags:
        present = name in _ALWAYS_GIVEN or name == bad_flag or draw(hst.booleans())
        if not present:
            continue
        in_config = draw(hst.booleans())
        if kind == "text":
            value = draw(hst.sampled_from(spec))
        elif name != bad_flag:
            value = draw(hst.integers(*spec))
        elif name != "seed" and draw(hst.booleans()):  # --seed has no bound
            value = draw(hst.integers(spec[0] - 3, spec[0] - 1))
        elif in_config:  # a numeral string is the text of a valid integer
            value = draw(hst.one_of(hst.integers(*spec).map(str),
                                    hst.sampled_from(_MISTYPED_JSON)))
        else:
            value = draw(hst.sampled_from(_MISTYPED_TEXT))
        if in_config:
            if name == "schedule" and value.startswith(("[", "{")):
                value = json.loads(value)
            config[name] = value
            continue
        flag = "--" + name.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif value is not False:
            text = value if isinstance(value, str) else json.dumps(value)
            argv += draw(hst.sampled_from([[flag, text], [f"{flag}={text}"]]))
    return argv, config, bad_flag is not None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_argvs())
def test_any_argv_exits_with_a_documented_code(case):
    argv, config, bad = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if argv[0] == "distance":
            (tmp / "seq.json").write_text("[1, 2, 1]")
            argv = argv + [str(tmp / "seq.json")]
        elif argv[0] == "dmtf":
            (tmp / "wl.json").write_text("[[2], [1, 2]]")
            argv = argv + ["--workload", str(tmp / "wl.json")]
        if config:
            (tmp / "cfg.json").write_text(json.dumps(config))
            argv = argv + ["--config", str(tmp / "cfg.json")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3, 4, 5)
    errors = [l for l in err.getvalue().splitlines() if l.startswith("error:")]
    if code == 1:
        assert err.getvalue().count("\n") == 1 and len(errors) == 1
    else:
        assert not errors
    if bad:
        assert code == 1, (argv, config)
