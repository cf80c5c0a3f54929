import argparse
import hashlib
import inspect
import json

import pytest

from eamod import suites
from eamod import symrep as sr
from eamod import variety as vy
from eamod.cli import ParseFailure, build_parser, main, parse_element, parse_point
from eamod.gf import field_create

from oracles import el, gen

F9 = field_create(3, 2)
F3 = field_create(3, 1)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_element_grammar():
    w = gen(F9)
    assert el(F9, parse_element(F9, "2w+1")) == 2 * w + 1
    assert el(F9, parse_element(F9, "w")) == w
    assert el(F9, parse_element(F9, "-w")) == -w
    assert el(F9, parse_element(F9, "w^2")) == w * w
    assert el(F9, parse_element(F9, "5")) == el(F9, 5)
    assert el(F9, parse_element(F9, " 2 + w ")) == w + 2
    assert el(F3, parse_element(F3, "7")) == el(F3, 1)
    # w^e is a power of w, and w reads as 1 over a prime field
    f27 = field_create(3, 3)
    u = gen(f27)
    assert el(f27, parse_element(f27, "2w^2-w^4+w^0")) == 2 * u ** 2 - u ** 4 + 1
    assert el(f27, parse_element(f27, "-w^2+w")) == u - u * u
    assert el(F3, parse_element(F3, "2w^5+w")) == el(F3, 0)


def test_parse_element_failures():
    with pytest.raises(ParseFailure) as err:
        parse_element(F9, "2x+1")
    assert err.value.position == 1
    with pytest.raises(ParseFailure):
        parse_element(F9, "")
    with pytest.raises(ParseFailure):
        parse_element(F9, "w^")
    with pytest.raises(ParseFailure):
        parse_element(F9, "1+")
    with pytest.raises(ParseFailure):
        parse_element(F9, "1 2")
    # a position counts the leading spaces of its coordinate
    with pytest.raises(ParseFailure) as err:
        parse_point(F9, "1,  2x")
    assert err.value.position == 5
    # digits are ASCII only: str.isdigit() would take the Arabic-Indic three
    # and the superscript two
    for text, offset in (("\u0663", 0), ("\u00b2", 0), ("w+\u0663", 2), ("w^\u00b2", 2)):
        with pytest.raises(ParseFailure) as err:
            parse_element(F9, text)
        assert err.value.position == offset
        assert ("unexpected character" if "^" not in text else "missing exponent") in str(err.value)


def test_parse_point():
    pt = parse_point(F9, "1,w,2w+2")
    assert pt.shape == (3, 2)
    assert [el(F9, c) for c in pt] == [el(F9, 1), gen(F9), 2 * gen(F9) + 2]


def test_build_and_jordan_roundtrip(tmp_path, capsys):
    path = tmp_path / "d1.json"
    code, out, _ = run(capsys, "build", "d1", "--p", "3", "--k", "3", "--out", str(path))
    assert code == 0
    assert json.loads(out)["dim"] == 7
    code, out, _ = run(
        capsys, "query", "jordan", "--module", str(path), "--alpha", "1,1,w", "--ext", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["jordan_type"] == "[3]^2[1]"
    assert payload["free"] is False


def test_build_dr_and_variety_compare(tmp_path, capsys):
    path = tmp_path / "d2.json"
    code, out, _ = run(
        capsys, "build", "dr", "--p", "3", "--k", "2", "-r", "2", "--ext", "2",
        "--out", str(path),
    )
    assert code == 0 and json.loads(out)["dim"] == 6
    code, out, _ = run(
        capsys, "query", "variety", "--module", str(path), "--poly", "pk", "--compare"
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "Equal"


def test_variety_csv_output(tmp_path, capsys):
    path = tmp_path / "d2.json"
    run(capsys, "build", "dr", "--p", "3", "--k", "2", "-r", "2", "--ext", "2",
        "--out", str(path))
    csv_path = tmp_path / "points.csv"
    code, out, _ = run(
        capsys, "query", "variety", "--module", str(path), "--format", "csv",
        "--out", str(csv_path),
    )
    assert code == 0
    assert csv_path.read_text().splitlines()[0] == "point,jordan_type,free"


def test_build_benson(tmp_path, capsys):
    path = tmp_path / "benson.json"
    code, out, _ = run(
        capsys, "build", "benson", "--p", "3", "--lambda", "0", "--mu", "1",
        "--out", str(path),
    )
    assert code == 0 and json.loads(out)["dim"] == 3


def test_build_sum_tensor_wedge_dual(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "build", "benson", "--p", "3", "--lambda", "0", "--mu", "1", "--out", str(a))
    run(capsys, "build", "regular", "--p", "3", "--k", "2", "--out", str(b))
    out_path = tmp_path / "sum.json"
    code, out, _ = run(capsys, "build", "sum", "--modules", str(a), str(b), "--out", str(out_path))
    assert code == 0 and json.loads(out)["dim"] == 12
    code, out, _ = run(capsys, "build", "tensor", "--modules", str(a), str(a),
                       "--out", str(tmp_path / "t.json"))
    assert code == 0 and json.loads(out)["dim"] == 9
    code, out, _ = run(capsys, "build", "wedge", "--module", str(a), "-r", "2",
                       "--out", str(tmp_path / "w.json"))
    assert code == 0 and json.loads(out)["dim"] == 3
    code, out, _ = run(capsys, "build", "dual", "--module", str(a),
                       "--out", str(tmp_path / "dual.json"))
    assert code == 0 and json.loads(out)["dim"] == 3


def test_build_linear_and_induce(tmp_path, capsys):
    code, out, _ = run(
        capsys, "build", "linear", "--p", "3", "--k", "2", "--w", "1,1",
        "--out", str(tmp_path / "line.json"),
    )
    assert code == 0 and json.loads(out)["dim"] == 3
    code, out, _ = run(
        capsys, "build", "induce", "--p", "3", "--w", "1,1",
        "--out", str(tmp_path / "ind.json"),
    )
    assert code == 0 and json.loads(out)["dim"] == 3


def test_query_projective_and_decompose_and_green(tmp_path, capsys):
    reg = tmp_path / "reg.json"
    run(capsys, "build", "regular", "--p", "3", "--k", "2", "--out", str(reg))
    code, out, _ = run(capsys, "query", "projective", "--module", str(reg))
    assert code == 0
    assert json.loads(out) == {"free_summands": 1, "is_projective": True}

    d2 = tmp_path / "d2.json"
    run(capsys, "build", "dr", "--p", "3", "--k", "2", "-r", "2", "--ext", "2",
        "--out", str(d2))
    code, out, _ = run(capsys, "query", "decompose", "--module", str(d2),
                       "--trials", "60", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "decomposed" and sorted(payload["summand_dims"]) == [3, 3]
    code, out, _ = run(capsys, "query", "green", "--module", str(d2))
    assert code == 0 and json.loads(out)["witness"] == "(1,w)"


def test_query_projective_of_rank_zero_forms_no_identity(tmp_path, capsys):
    # every module of the trivial group is free; I_n of dim 10^9 would take 6.94 EiB
    d1 = _write_inputs(tmp_path, capsys)
    giant = tmp_path / "rankzerogiant.json"
    giant.write_text(json.dumps(dict(json.loads(d1.read_text()), k=0, dim=10 ** 9, generators=[])))
    code, out, _ = run(capsys, "query", "projective", "--module", str(giant))
    assert code == 0
    assert json.loads(out) == {"free_summands": 10 ** 9, "is_projective": True}


def test_query_generic(tmp_path, capsys):
    d1 = tmp_path / "d1.json"
    run(capsys, "build", "d1", "--p", "3", "--k", "2", "--out", str(d1))
    code, out, _ = run(capsys, "query", "generic", "--module", str(d1),
                       "--ext", "4", "--trials", "24", "--seed", "7")
    assert code == 0
    assert json.loads(out)["generic_type"] == "[3][1]"


def test_query_generic_seed_zero_is_a_seed(tmp_path, capsys):
    d1 = tmp_path / "d1.json"
    run(capsys, "build", "d1", "--p", "3", "--k", "2", "--out", str(d1))
    code, out, _ = run(capsys, "query", "generic", "--module", str(d1), "--seed", "0")
    _, evidence = vy.generic_type(sr.block_model_d1(sr.SymContext(3, 2), F3), 4, 24, 0)
    assert code == 0
    assert json.loads(out)["attained"] == evidence.attained == 24


def test_query_generic_lifts_an_extension_field_module(tmp_path, capsys):
    d2 = tmp_path / "d2.json"
    run(capsys, "build", "dr", "--p", "3", "--k", "2", "-r", "2", "--ext", "2",
        "--out", str(d2))
    code, out, _ = run(capsys, "query", "generic", "--module", str(d2))
    assert code == 0
    assert json.loads(out)["generic_type"] == "[3]^2"


def test_suite_parameters_are_cli_options():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    verify = commands.choices["verify"]
    options = {a.dest for a in verify._actions} - {"help", "suite", "out"}
    assert options == {"p", "k", "ext", "trials", "seed"}
    for name, suite in suites.SUITES.items():
        assert set(inspect.signature(suite).parameters) <= options, name


def test_pair_suite_without_p_and_k_runs_its_default_pairs():
    reports = suites.run_suite("basis-change", p=None, k=None)
    pairs = [(r.parameters["p"], r.parameters["k"]) for r in reports]
    assert pairs == suites.DEFAULT_PAIRS["basis-change"]


def test_bad_alpha_is_usage_error(tmp_path, capsys):
    d1 = tmp_path / "d1.json"
    run(capsys, "build", "d1", "--p", "3", "--k", "2", "--out", str(d1))
    code, _, err = run(capsys, "query", "jordan", "--module", str(d1), "--alpha", "1,x")
    assert code == 2
    assert "position" in err


def test_missing_out_is_usage_error(capsys):
    code, _, err = run(capsys, "build", "d1", "--p", "3", "--k", "2")
    assert code == 2 and "error" in err


def test_verify_suite_exit_codes(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, err = run(capsys, "verify", "--suite", "basis-change", "--p", "3", "--k", "2",
                       "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["pass"] is True
    assert all("paper_anchor" in c for c in payload["checks"])


def test_verify_reports_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "verify", "--suite", "jtd1", "--p", "3", "--k", "2", "--out", str(a))
    run(capsys, "verify", "--suite", "jtd1", "--p", "3", "--k", "2", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_verify_exploratory_always_zero(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "explore-k1modp", "--p", "3", "--k", "4",
                       "--ext", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["exploratory"] is True
    # F_3 is swept once, so no check id repeats
    assert payload["parameters"]["ext_degrees"] == [1]
    assert [c["id"] for c in payload["checks"]] == ["explore/3-4/ext1"]


@pytest.mark.parametrize("p,k", [("2", "2"), ("4", "2"), ("3", "0")])
def test_verify_bad_parameters_are_usage_errors(capsys, p, k):
    code, _, err = run(capsys, "verify", "--suite", "main-thm", "--p", p, "--k", k)
    assert code == 2 and "error" in err


INVALID_INPUTS = {
    "dr-degree-out-of-range": ["build", "dr", "--p", "3", "--k", "2", "-r", "9", "--out", "{tmp}/x.json"],
    "wedge-degree-out-of-range": ["build", "wedge", "--module", "{d1}", "-r", "9", "--out", "{tmp}/x.json"],
    "rank-lemma-k1": ["verify", "--suite", "rank-lemma", "--p", "3", "--k", "1"],
    "main-thm-k1": ["verify", "--suite", "main-thm", "--p", "3", "--k", "1"],
    "rank-lemma-past-cap": ["verify", "--suite", "rank-lemma", "--p", "3", "--k", "15"],
    "decomp-k2-p5": ["verify", "--suite", "decomp-k2", "--p", "5"],
    "axioms-p7": ["verify", "--suite", "axioms", "--p", "7"],
    "file-wrong-format": ["query", "projective", "--module", "{tmp}/format.json"],
    "file-entry-out-of-range": ["query", "projective", "--module", "{tmp}/entry.json"],
    "file-entry-not-int": ["query", "projective", "--module", "{tmp}/entryfloat.json"],
    "file-not-nilpotent": ["query", "projective", "--module", "{tmp}/nilpotent.json"],
    "file-malformed-json": ["query", "projective", "--module", "{tmp}/malformed.json"],
    "file-missing-field": ["query", "projective", "--module", "{tmp}/nofield.json"],
    "file-not-object": ["query", "projective", "--module", "{tmp}/list.json"],
    "file-field-incomplete": ["query", "projective", "--module", "{tmp}/noirr.json"],
    "file-irr-not-list": ["query", "projective", "--module", "{tmp}/irrint.json"],
    "file-generators-not-list": ["query", "projective", "--module", "{tmp}/gensint.json"],
    "file-p-not-int": ["query", "projective", "--module", "{tmp}/plist.json"],
    "file-dim-null": ["query", "projective", "--module", "{tmp}/dimnull.json"],
    "file-field-m-not-int": ["query", "projective", "--module", "{tmp}/mlist.json"],
    "file-irr-entry-not-int": ["query", "projective", "--module", "{tmp}/irrentry.json"],
    "file-irr-not-monic": ["query", "projective", "--module", "{tmp}/irrmonic.json"],
    "file-dim-negative": ["query", "generic", "--module", "{tmp}/dimnegative.json"],
    "file-k-negative": ["query", "variety", "--module", "{tmp}/knegative.json"],
    "generic-rank-zero": ["query", "generic", "--module", "{tmp}/rankzero.json"],
    "decompose-rank-zero-dim-5000": ["query", "decompose", "--module", "{tmp}/rankzero5000.json"],
    "decompose-rank-zero-dim-1e9": ["query", "decompose", "--module", "{tmp}/rankzero1e9.json"],
    "point-too-many-coordinates": ["query", "jordan", "--module", "{d1}", "--alpha", "1,1,1"],
    "point-zero": ["query", "jordan", "--module", "{d1}", "--alpha", "0,0"],
    "point-arabic-indic-digit": ["query", "jordan", "--module", "{d1}", "--alpha", "\u0663,1"],
    "point-superscript-digit": ["query", "jordan", "--module", "{d1}", "--alpha", "\u00b2,1"],
    "green-p0": ["verify", "--suite", "green", "--p", "0"],
    "dv-rank2-ext0": ["verify", "--suite", "dv-rank2", "--ext", "0"],
    "dv-linear-k0": ["verify", "--suite", "dv-linear", "--k", "0"],
    "all-with-options": ["verify", "--suite", "all", "--p", "5", "--k", "3"],
    "main-thm-seed": ["verify", "--suite", "main-thm", "--p", "3", "--k", "2", "--seed", "5"],
    "rank-lemma-ext": ["verify", "--suite", "rank-lemma", "--p", "3", "--k", "2", "--ext", "2"],
    "generic-trials0": ["query", "generic", "--module", "{d1}", "--trials", "0"],
    "decompose-trials0": ["query", "decompose", "--module", "{d1}", "--trials", "0"],
    "jordan-ext0": ["query", "jordan", "--module", "{d1}", "--alpha", "1,1", "--ext", "0"],
    "build-unused-options": ["build", "dual", "--module", "{d1}", "--k", "7", "--ext", "5", "-r", "3",
                             "--out", "{tmp}/x.json"],
    "query-unused-options": ["query", "projective", "--module", "{d1}", "--ext", "3", "--seed", "4",
                             "--trials", "9"],
    "induce-module-with-p": ["build", "induce", "--module", "{d1}", "--w", "1,0;0,1", "--p", "3",
                             "--out", "{tmp}/x.json"],
}

# what the message of each refused option or value names
NAMED_IN_ERROR = {
    "green-p0": "0 is not prime",
    # D(p - 1) at k = 1 lies past kp - 2, though no -r was given
    "main-thm-k1": "D(r) at p = 3, k = 1 needs r in 0..kp - 2 = 1, got r = 2",
    "file-irr-not-monic": "irr [1, 0, 2] must be monic of degree m = 2 over F_3",
    "axioms-p7": "dim C(19, 6) = 27132",
    "dv-rank2-ext0": "extension degree 0",
    "dv-linear-k0": "k must be >= 1, got 0",
    "all-with-options": "--p",
    "main-thm-seed": "--seed",
    "rank-lemma-ext": "--ext",
    "generic-trials0": "trials",
    "decompose-trials0": "trials",
    "jordan-ext0": "extension degree 0",
    "file-dim-negative": "module key 'dim' must be an integer >= 0, got -1",
    "file-k-negative": "module key 'k' must be an integer >= 0, got -1",
    "generic-rank-zero": "got k = 0",
    # the word cube alone would be 116 GiB; refused before the spin
    "decompose-rank-zero-dim-5000": "dim 5000 over F_3 (m = 1) with 5000 top generators can hold "
                                    "15625625000000000 bytes",
    # refused before the top and socle ranks, whose pivot array alone would be 14.9 GiB
    "decompose-rank-zero-dim-1e9": "dim 1000000000 over F_3 (m = 1) with 1000000000 top generators",
    "build-unused-options": "build dual takes no --k, --ext, -r",
    "query-unused-options": "query projective takes no --ext, --trials, --seed",
    "induce-module-with-p": "build induce --module takes no --p or --ext",
    "point-arabic-indic-digit": "unexpected character '\u0663' (at position 0)",
    "point-superscript-digit": "unexpected character '\u00b2' (at position 0)",
}


def _write_inputs(tmp_path, capsys):
    """The module files that INVALID_INPUTS name, beside a good D(1) at (3, 2); returns its path."""
    d1 = tmp_path / "d1.json"
    run(capsys, "build", "d1", "--p", "3", "--k", "2", "--out", str(d1))  # dim 4
    raw = json.loads(d1.read_text())
    (tmp_path / "format.json").write_text(json.dumps(dict(raw, format="eamod-v0")))
    entry = json.loads(d1.read_text())
    entry["generators"][0][0][0] = [3]
    (tmp_path / "entry.json").write_text(json.dumps(entry))
    entry["generators"][0][0][0] = [0.5]
    (tmp_path / "entryfloat.json").write_text(json.dumps(entry))
    nilpotent = json.loads(d1.read_text())
    nilpotent["generators"][0] = [[[int(i == j)] for j in range(4)] for i in range(4)]
    (tmp_path / "nilpotent.json").write_text(json.dumps(nilpotent))
    (tmp_path / "malformed.json").write_text("{\"format\": ")
    (tmp_path / "nofield.json").write_text(json.dumps({k: v for k, v in raw.items() if k != "field"}))
    (tmp_path / "list.json").write_text("[1,2]")
    (tmp_path / "noirr.json").write_text(json.dumps(dict(raw, field={"p": 3, "m": 1})))
    (tmp_path / "irrint.json").write_text(json.dumps(dict(raw, field={"p": 3, "m": 1, "irr": 5})))
    (tmp_path / "gensint.json").write_text(json.dumps(dict(raw, generators=5)))
    (tmp_path / "plist.json").write_text(json.dumps(dict(raw, p=[3])))
    (tmp_path / "dimnull.json").write_text(json.dumps(dict(raw, dim=None)))
    (tmp_path / "mlist.json").write_text(json.dumps(dict(raw, field={"p": 3, "m": [1], "irr": [0, 1]})))
    (tmp_path / "irrentry.json").write_text(json.dumps(dict(raw, field={"p": 3, "m": 1, "irr": [[0], 1]})))
    (tmp_path / "irrmonic.json").write_text(json.dumps(dict(raw, field={"p": 3, "m": 2, "irr": [1, 0, 2]})))
    rank_zero = dict(raw, k=0, dim=2, generators=[])
    (tmp_path / "rankzero.json").write_text(json.dumps(rank_zero))
    (tmp_path / "rankzero5000.json").write_text(json.dumps(dict(rank_zero, dim=5000)))
    (tmp_path / "rankzero1e9.json").write_text(json.dumps(dict(rank_zero, dim=10 ** 9)))
    (tmp_path / "dimnegative.json").write_text(json.dumps(dict(rank_zero, dim=-1)))
    (tmp_path / "knegative.json").write_text(json.dumps(dict(rank_zero, k=-1)))
    return d1


@pytest.mark.parametrize("argv", list(INVALID_INPUTS.values()), ids=list(INVALID_INPUTS))
def test_invalid_input_is_usage_error(tmp_path, capsys, argv):
    d1 = _write_inputs(tmp_path, capsys)
    code, _, err = run(capsys, *[a.format(tmp=tmp_path, d1=d1) for a in argv])
    assert code == 2 and "error" in err


@pytest.mark.parametrize("case", list(NAMED_IN_ERROR))
def test_refusal_names_the_option(tmp_path, capsys, case):
    d1 = _write_inputs(tmp_path, capsys)
    code, _, err = run(capsys, *[a.format(tmp=tmp_path, d1=d1) for a in INVALID_INPUTS[case]])
    assert code == 2 and NAMED_IN_ERROR[case] in err


# sha256 of the `verify --suite all` report; it changes only with an entry in CHANGES.md
ALL_REPORT_SHA256 = "47b22db5c73fa91c22b919da951728f9bbd4a6b8e4fb6216fce01173370f24c3"


def test_verify_all_report_digest(tmp_path, capsys):
    out = tmp_path / "all.json"
    code, _, _ = run(capsys, "verify", "--suite", "all", "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ALL_REPORT_SHA256


# sha256 of reports past the defaults whose verdicts are built as point masks
# (rank-lemma clauses, jtd1 max-set, compare_sets witnesses); each changes
# only with an entry in CHANGES.md
REPORT_SHA256 = {
    "rank-lemma-3-5": (
        "8253a36a317884b69c4c52c84a0acfb8629acf0fa416cb150a5c393f155efc8d",
        ["verify", "--suite", "rank-lemma", "--p", "3", "--k", "5"],
    ),
    "jtd1-5-3": (
        "9cd65bc0ede13e411b4941959eddfb2e15d10f1baecdf27fe21447629ef1e38f",
        ["verify", "--suite", "jtd1", "--p", "5", "--k", "3"],
    ),
    "linear-line-vs-pk": (
        "fe308ffbbe4fe42efae10efab9ad3ee19fc72cd564d0b58d52c2831d34875bd6",
        ["query", "variety", "--module", "{line}", "--ext", "2", "--poly", "pk", "--compare"],
    ),
}


# sha256 of `query decompose` reports on D(r) modules from `build dr`; each
# changes only with an entry in CHANGES.md
DECOMPOSE_SHA256 = {
    "d4-5-2": (
        "485cf57d5cc0448449988f3d2acd71925f0e07d41737f07c78caa688be07d88c",
        ["--p", "5", "--k", "2", "-r", "4"],
    ),
    "d2-3-4": (
        "6eef1cc240c8c5945390ec486b974ccb7c99849d4ba090cd422a5e7a4da29dc6",
        ["--p", "3", "--k", "4", "-r", "2"],
    ),
}


@pytest.mark.parametrize("case", list(DECOMPOSE_SHA256))
def test_decompose_report_digests(tmp_path, capsys, case):
    digest, build = DECOMPOSE_SHA256[case]
    module = tmp_path / "module.json"
    assert run(capsys, "build", "dr", *build, "--out", str(module))[0] == 0
    out = tmp_path / "report.json"
    code, _, _ = run(capsys, "query", "decompose", "--module", str(module), "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of point names over F_27 with w^2 terms: every CSV row names a point
# of P^2(F_27) on the line through (1,w,w^2), and the Jordan report names the
# parsed --alpha; each changes only with an entry in CHANGES.md
F27_NAME_SHA256 = {
    "variety-csv": (
        "fb15fd6dcb442972a090ae93c6ae1f86bf89dd5da59e379db9be088a0cc0bf6a",
        ["query", "variety", "--module", "{line}", "--format", "csv"],
    ),
    "jordan": (
        "b65f80f1e02b403339f5bcc84b378a27c4604add29b15e6a2f35c2ffe602411d",
        ["query", "jordan", "--module", "{line}", "--alpha", "2w^2+w,w^2,1"],
    ),
}


@pytest.mark.parametrize("case", list(F27_NAME_SHA256))
def test_point_names_over_f27(tmp_path, capsys, case):
    digest, argv = F27_NAME_SHA256[case]
    line = tmp_path / "line.json"
    build = ["build", "linear", "--p", "3", "--k", "3", "--ext", "3", "--w", "1,w,w^2"]
    assert run(capsys, *build, "--out", str(line))[0] == 0
    out = tmp_path / "report"
    code, _, _ = run(capsys, *[a.format(line=line) for a in argv], "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("case", list(REPORT_SHA256))
def test_report_digests_past_the_defaults(tmp_path, capsys, case):
    digest, argv = REPORT_SHA256[case]
    line = tmp_path / "line.json"
    run(capsys, "build", "linear", "--p", "3", "--k", "3", "--w", "1,1,0", "--out", str(line))
    out = tmp_path / "report.json"
    code, _, _ = run(capsys, *[a.format(line=line) for a in argv], "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
