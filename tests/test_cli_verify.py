import importlib
import inspect
import json
import pathlib
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import congforge
from congforge import fixtures, jsonio, limits, verify
from congforge.algebras import FiniteAlgebra, make_operation
from congforge.cli import main
from congforge.lattice import LatticeError, NotALatticeError
from congforge.limits import CongforgeError
from congforge.terms import InvalidNError


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, lat in (("m3", fixtures.m3()), ("n5", fixtures.n5())):
        p = tmp_path / ("%s.json" % name)
        p.write_text(jsonio.lattice_to_json(lat))
        paths[name] = str(p)
    for name, alg in (
        ("z2", fixtures.cyclic_group(2)),
        ("z2z2", fixtures.klein_group()),
        ("s3", fixtures.sym3()),
    ):
        p = tmp_path / ("%s.json" % name)
        p.write_text(json.dumps(jsonio.algebra_to_dict(alg)))
        paths[name] = str(p)
    return paths


def test_lattice_json_roundtrip(m3x2):
    again = jsonio.lattice_from_json(jsonio.lattice_to_json(m3x2))
    assert again == m3x2
    assert again.labels == m3x2.labels


def test_algebra_json_roundtrip():
    s3 = fixtures.sym3()
    again = jsonio.algebra_from_dict(jsonio.algebra_to_dict(s3))
    assert again.size == 6
    import numpy as np

    for name in ("mul", "inv"):
        assert np.array_equal(again.by_name[name], s3.by_name[name])


def test_partition_json():
    from congforge.partitions import Partition

    part = Partition.from_blocks(4, [[0, 2], [1], [3]])
    again = jsonio.partition_from_dict(jsonio.partition_to_dict(part))
    assert again == part
    with pytest.raises(ValueError):
        jsonio.partition_from_dict({"base_size": 3, "blocks": [[0, 1]]})
    for size, blocks in ((2.9, [[0, 1]]), (True, [[0]]), ("2", [[0, 1]])):
        with pytest.raises(ValueError, match="base_size"):
            jsonio.partition_from_dict({"base_size": size, "blocks": blocks})


def test_check_exit_codes(files, capsys):
    assert main(["check", files["n5"], "--builtin", "modular"]) == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["status"] == "fails" and len(verdict["assignment"]) == 3
    assert main(["check", files["m3"], "--builtin", "2dist"]) == 0
    capsys.readouterr()
    assert main(["check", files["m3"], "--builtin", "arguesian-d3"]) == 0
    capsys.readouterr()
    assert main(["check", files["m3"], "--identity", "x*(y+z) = x*y + x*z"]) == 1
    capsys.readouterr()
    assert main(["check", files["m3"], "--builtin", "dn"]) == 2  # missing --n
    assert main(["check", "/nonexistent.json", "--builtin", "modular"]) == 2
    assert main(["check", files["m3"], "--identity", "x0 + ("]) == 2


def test_check_rejects_bad_lattice_files(tmp_path, capsys):
    bowtie = {"size": 6, "covers": [[0, 1], [0, 2], [1, 3], [2, 3], [1, 4], [2, 4], [3, 5], [4, 5]]}
    cycle = {"size": 3, "covers": [[0, 1], [1, 2], [2, 0]]}
    for name, data, message in (("bowtie", bowtie, "not a lattice"),
                                ("cycle", cycle, "not a partial order"),
                                ("covers", {"size": 3, "covers": 5}, "covers must be a list")):
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(data))
        assert main(["check", str(path), "--builtin", "modular"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("size", [-2, 0])
def test_check_refuses_a_lattice_file_without_elements(tmp_path, capsys, size):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"size": size, "covers": []}))
    assert main(["check", str(path), "--builtin", "modular"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: JSON field size must be a positive integer\n"


def test_duplicate_check_ids_are_rejected():
    result = verify.SuiteResult("demo", 0)
    result.add("same-id", "first", True)
    result.add("same-id", "second", True)
    for dump in (result.to_dict, result.to_json):
        with pytest.raises(ValueError, match="duplicate check ids"):
            dump()


def test_check_dn_star_on_line_lattice(tmp_path, capsys):
    # the 6-element lattice of GF(3)^2 is a lattice of permuting
    # equivalence relations, so the companion inequality holds, decisively
    assert main(["gen", "sub", "--dim", "2", "--p", "3"]) == 0
    path = tmp_path / "sub_2_3.json"
    path.write_text(capsys.readouterr().out)
    assert main(["check", str(path), "--builtin", "dn-star", "--n", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "holds"


def test_check_sampled_mode(files, capsys):
    code = main(
        ["check", files["m3"], "--builtin", "dn-star", "--n", "3",
         "--mode", "sampled", "--samples", "500", "--seed", "9"]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["status"] == "sampled_pass"


def test_gen_commands(tmp_path, capsys):
    assert main(["gen", "pi", "--n", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["size"] == 5
    assert main(["gen", "sub", "--dim", "3", "--p", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["size"] == 16
    assert main(["gen", "m3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["size"] == 5 and len(data["covers"]) == 6
    m3_path = tmp_path / "m3.json"
    m3_path.write_text(json.dumps(data))
    two = tmp_path / "two.json"
    two.write_text(jsonio.lattice_to_json(fixtures.chain(2)))
    assert main(["gen", "product", str(m3_path), str(two)]) == 0
    assert json.loads(capsys.readouterr().out)["size"] == 10
    assert main(["gen", "pi"]) == 2  # --n required


def test_gen_respects_cap(monkeypatch, capsys):
    monkeypatch.setenv("CONGFORGE_CAP", "10")
    assert main(["gen", "sub", "--dim", "3", "--p", "2"]) == 2


def test_gen_sub_refuses_a_negative_dimension(capsys):
    assert main(["gen", "sub", "--dim", "-1", "--p", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "dim must be >= 0, got -1" in captured.err
    # GF(2)^0 has one subspace, the zero space
    assert main(["gen", "sub", "--dim", "0", "--p", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["size"] == 1


def test_alg_commands(files, capsys):
    assert main(["alg", files["z2z2"], "con"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["count"] == 5
    assert main(["alg", files["s3"], "commutator", "top", "top"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["commutator"] == [[0, 3, 4], [1, 2, 5]]
    assert main(["alg", files["z2"], "embed-construct", "--alpha", "top", "--n", "3"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"] and data["interval_size"] == 16
    assert main(["alg", files["s3"], "wdt", "mul(x, mul(inv(y), z))"]) == 0
    assert json.loads(capsys.readouterr().out)["is_weak_difference_term"]
    assert main(["alg", files["s3"], "commutator", "top", "[[0,1],[2,3],[4,5]]"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["z2", "commutator", "top"], "takes 2 arguments"),
    (["z2", "wdt"], "takes 1 arguments"),
    (["s3", "embed-construct", "--alpha", "top"], "abelian"),
    (["z2", "embed-construct", "--alpha", "top", "--n", "0"], "n >= 1"),
    (["z2", "embed-construct"], "--alpha"),
    (["s3", "wdt", "foo(x,y,z)"], "no operation named 'foo'"),
    (["z2", "commutator", "5", "top"], "a list of lists of integer points"),
    (["z2", "commutator", '[["a"]]', "top"], "a list of lists of integer points"),
    (["z2", "commutator", "[[0, true]]", "top"], "a list of lists of integer points"),
    (["z2", "embed-construct", "--alpha", "5"], "a list of lists of integer points"),
])
def test_alg_bad_input_exits_2(files, capsys, argv, message):
    assert main(["alg", files[argv[0]]] + argv[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("argv, message", [
    (["gen", "pi"], "gen pi needs --n"),
    (["gen", "sub", "--dim", "3"], "gen sub needs --dim and --p"),
    (["gen", "sub", "--p", "2"], "gen sub needs --dim and --p"),
    (["gen", "product", "m3"], "gen product needs two lattice files"),
    (["check", "m3"], "give --builtin or --identity"),
    (["check", "m3", "--identity", "x + y"], "input parses to a bare term, not an identity"),
    (["alg", "z2", "embed-construct"], "alg embed-construct needs --alpha"),
])
def test_usage_errors_exit_2_with_one_message(files, capsys, argv, message):
    argv = [files.get(arg, arg) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


@pytest.mark.parametrize("argv", [
    ["check", "m3", "--builtin", "dn", "--n", "2000"],
    ["check", "m3", "--identity", "x+(" * 990 + "x" + ")" * 990 + "=x"],
    ["check", "m3", "--identity", "(" * 3000 + "x" + ")" * 3000 + "=x"],
    ["alg", "s3", "wdt", "mul(" * 2000 + "x" + ",x)" * 2000],
])
def test_deeply_nested_input_exits_2(files, capsys, argv):
    assert main([argv[0], files[argv[1]]] + argv[2:]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # dn's 4000 variables nest its terms 2000 deep to the left; they compile
    # without a deep stack, so the evaluation budget refuses the check
    message = "term evaluations, budget is" if "--builtin" in argv else "nested too deeply"
    assert captured.err.startswith("error: ") and message in captured.err
    # a 400-term chain is still checked
    assert main(["check", files["m3"], "--identity", "+".join(["x"] * 400) + "=x"]) == 0


@pytest.mark.parametrize("data, message", [
    ({"size": 2, "ops": 7}, "ops must be a list"),
    ({"size": 2, "ops": [{"arity": 1, "table": [1, 0]}]}, "ops[0] must be an object with 'name'"),
])
def test_alg_rejects_malformed_algebra_files(tmp_path, capsys, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["alg", str(path), "con"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("action", [["con"], ["embed-construct", "--alpha", "top"]])
def test_alg_refuses_an_empty_universe(tmp_path, capsys, action):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"size": 0, "ops": [{"name": "mul", "arity": 2, "table": []}]}))
    assert main(["alg", str(path)] + action) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "size >= 1, got 0" in captured.err


def test_every_exception_is_a_congforge_error():
    defined = []
    for info in pkgutil.iter_modules(congforge.__path__):
        module = importlib.import_module("congforge." + info.name)
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and issubclass(cls, Exception):
                defined.append(cls)
    assert len(defined) >= 20
    assert [cls for cls in defined if not issubclass(cls, CongforgeError)] == []
    # each class keeps its former bases
    assert issubclass(InvalidNError, ValueError)
    assert issubclass(NotALatticeError, LatticeError)


def test_check_sampled_mode_needs_a_positive_count(files, capsys):
    for samples in ("0", "-5"):
        code = main(["check", files["m3"], "--builtin", "modular", "--mode", "sampled",
                     "--samples", samples, "--seed", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_verify_dnperm_needs_a_positive_instance_count(capsys):
    for instances in ("0", "-1"):
        assert main(["verify", "dnperm", "--instances", instances]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "instances" in captured.err


def test_verify_refuses_bad_counts_before_any_suite_runs(monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("a suite ran before its counts were checked")

    for suite in verify.SUITES:
        monkeypatch.setattr(verify, "suite_" + suite, never)
    for argv, flag in ((["verify", "all", "--instances", "0"], "instances"),
                       (["verify", "all", "--samples", "0"], "sampled_count"),
                       (["verify", "idequiv", "--samples", "-1"], "sampled_count")):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and flag in captured.err


def test_alg_commutator_over_the_closure_bound_exits_2(tmp_path, capsys):
    n = 300
    succ = make_operation("s", 1, [(x + 1) % n for x in range(n)], n)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(jsonio.algebra_to_dict(FiniteAlgebra(n, [succ]))))
    assert main(["alg", str(path), "commutator", "top", "top"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bytes" in err


def test_alg_embed_construct_over_the_power_table_bound_exits_2(files, capsys, monkeypatch):
    # Z2 at n = 3 over the top: 8 tuples, tables of 8^2 + 8 cells at 16
    # bytes a cell, 1152 bytes; refused at a bound one byte lower
    monkeypatch.setattr(limits, "CLOSURE_BYTES", 1151)
    assert main(["alg", files["z2"], "embed-construct", "--alpha", "top", "--n", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "need 1152 bytes, over the bound of 1151" in err


def test_alg_embed_construct_over_the_translation_bound_exits_2(tmp_path, capsys, monkeypatch):
    # Z3 at n = 3 over the top: 27 tuples; the power's tables, 27^2 + 27
    # cells at 16 bytes, fit, but its translations, inv's column and mul's
    # 2 * 27, 1485 cells at 57 bytes a cell, are refused at a bound one
    # byte lower.  (Over affine Z3 the power's 27^3 table is refused first:
    # its translations are 54 distinct columns, 83106 bytes.)
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(jsonio.algebra_to_dict(fixtures.cyclic_group(3))))
    monkeypatch.setattr(limits, "CLOSURE_BYTES", 57 * 1485 - 1)
    assert main(["alg", str(path), "embed-construct", "--alpha", "top", "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 55 translations of A(alpha) on 27 points")
    assert "need 84645 bytes, over the bound of 84644" in captured.err
    monkeypatch.setattr(limits, "CLOSURE_BYTES", 57 * 1485)
    assert main(["alg", str(path), "embed-construct", "--alpha", "top", "--n", "3"]) == 0


def test_alg_embed_construct_of_a_large_unary_power_exits_2_at_the_element_cap(
        tmp_path, capsys, monkeypatch):
    # the identity on 2 points at n = 12: 4096 tuples, whose 8386560
    # principal congruences are all distinct; they are generated a chunk at
    # a time and refused past the cap of 20000, not held at once (256 GiB)
    monkeypatch.delenv("CONGFORGE_CAP", raising=False)
    path = tmp_path / "id2.json"
    path.write_text(json.dumps(jsonio.algebra_to_dict(
        FiniteAlgebra(2, [make_operation("id", 1, range(2), 2)]))))
    assert main(["alg", str(path), "embed-construct", "--alpha", "top", "--n", "12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: partition sublattice closure has ")
    assert "over the cap of 20000" in captured.err


def test_alg_con_far_over_the_element_cap_exits_2(tmp_path, capsys, monkeypatch):
    # Con of the 9-point identity algebra is all 21147 partitions
    monkeypatch.delenv("CONGFORGE_CAP", raising=False)
    ident = FiniteAlgebra(9, [make_operation("id", 1, range(9), 9)])
    path = tmp_path / "id9.json"
    path.write_text(json.dumps(jsonio.algebra_to_dict(ident)))
    assert main(["alg", str(path), "con"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "over the cap of 20000" in captured.err


def test_verify_cli(files, capsys):
    assert main(["verify", "abx", "--seed", "7"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"]
    ids = [c["check_id"] for c in data["suites"][0]["checks"]]
    assert ids == sorted(ids)
    assert main(["--human", "verify", "m3proj"]) == 0
    out = capsys.readouterr().out
    assert "m3proj-nonmodular-failure" in out


@pytest.mark.parametrize("count", [990, 5000])
def test_a_deep_flat_identity_is_checked(tmp_path, capsys, count):
    # x+x+...+x nests to the left as deep as it is long; compiling and
    # printing it walk no Python stack
    path = tmp_path / "c3.json"
    path.write_text(jsonio.lattice_to_json(fixtures.chain(3)))
    text = "+".join(["x"] * count) + "=x"
    assert main(["check", str(path), "--identity", text]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    out = json.loads(captured.out)
    assert (out["status"], out["checked"]) == ("holds", 3)
    assert out["formula"] == " + ".join(["x"] * count) + " = x"


def test_a_reader_closing_stdout_early_gets_no_traceback():
    # the reader closes its end before the program writes, as `| head -c 100`
    # does once it has its bytes; the program stops quietly with exit 1
    proc = subprocess.Popen(
        [sys.executable, "-m", "congforge.cli", "gen", "pi", "--n", "6"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == b""


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "congforge.cli", "gen", "n5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["size"] == 5


def test_suite_determinism():
    a = verify.suite_dnperm(seed=4, instances=50)
    b = verify.suite_dnperm(seed=4, instances=50)
    assert a.to_json() == b.to_json() or _strip_times(a) == _strip_times(b)


def _strip_times(result):
    return [(c.check_id, c.passed, json.dumps(c.witness, sort_keys=True, default=str))
            for c in result.checks]


def test_every_suite_has_unique_check_ids():
    seen = set()
    for suite in (
        verify.suite_abx(),
        verify.suite_m3proj(),
        verify.suite_commutator(),
        verify.suite_embedding(),
        verify.suite_dnperm(instances=20),
    ):
        for c in suite.checks:
            assert c.check_id not in seen
            seen.add(c.check_id)
            if not c.passed:
                assert c.witness is not None


def _without_elapsed(node):
    if isinstance(node, dict):
        return {k: _without_elapsed(v) for k, v in node.items() if k != "elapsed"}
    if isinstance(node, list):
        return [_without_elapsed(v) for v in node]
    return node


def test_verify_all_seed0_matches_the_golden_output(capsys):
    # every check id, verdict and witness of `verify all --seed 0`, as
    # committed in tests/data; only the timings may differ between runs
    assert main(["verify", "all", "--seed", "0"]) == 0
    got = _without_elapsed(json.loads(capsys.readouterr().out))
    golden = pathlib.Path(__file__).parent / "data" / "verify_all_seed0.json"
    assert got == json.loads(golden.read_text())
