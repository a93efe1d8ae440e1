"""TPTP rendering, problem files and SZS output handling."""

import dataclasses
from pathlib import Path

import pytest

import genformulas
from test_kif import alpha_equal
from cqeval import Error, kif, microprover, ontology, prover_cli, tptp
from cqeval.cqgen import CompetencyQuestion, Pattern, Polarity
from cqeval.tptp import (
    SzsStatus,
    demangle_symbol,
    mangle_symbol,
    mangle_variable,
    parse_szs,
    read_problem,
    read_units,
    render_fof,
    render_szs_output,
    render_unit,
    write_problem,
)


def test_mangling():
    assert mangle_symbol("Boy") == "s__Boy"
    assert mangle_symbol("part-of") == "s__part_of"
    assert mangle_variable("OBJ") == "VOBJ"
    assert demangle_symbol("s__Boy") == "Boy"
    assert demangle_symbol("unprefixed") == "unprefixed"


def test_mangle_collision_detected():
    table = {}
    f = kif.parse_kif("(p a-b a_b)")[0]
    with pytest.raises(Error, match="'a-b' and 'a_b' both mangle to 's__a_b'"):
        render_unit(f, table)


def test_render_unit_shapes():
    cases = {
        "(instance a B)": "s__instance(s__a, s__B)",
        "(and (p) (q) (r))": "(s__p & s__q & s__r)",
        "(or (p) (not (q)))": "(s__p | ~ s__q)",
        "(<=> (p) (q))": "(s__p <=> s__q)",
        "(equal (f a) b)": "(s__f(s__a) = s__b)",
        "(exists (?X ?Y) (p ?X ?Y))": "? [VX, VY] : s__p(VX, VY)",
    }
    for src, want in cases.items():
        f = kif.parse_kif(src)[0]
        assert render_unit(f, {}) == want


def test_render_fof_pinned_axiom():
    f = kif.parse_kif("(=> (instance ?OBJ Boy) (not (instance ?OBJ DomesticAnimal)))")[0]
    assert render_fof("ax1", "axiom", f) == (
        "fof(ax1, axiom, ! [VOBJ] : "
        "(s__instance(VOBJ, s__Boy) => ~ s__instance(VOBJ, s__DomesticAnimal)))."
    )


def test_render_fof_pinned_conjecture():
    f = kif.parse_kif("(not (equal Death Killing))")[0]
    assert render_fof("cq_event1_death_killing", "conjecture", f) == (
        "fof(cq_event1_death_killing, conjecture, ~ (s__Death = s__Killing))."
    )


def test_render_fof_quotes_awkward_names():
    f = kif.parse_kif("(p a)")[0]
    assert render_fof("9lives", "axiom", f).startswith("fof('9lives', axiom,")


AWKWARD_LABELS = ("ax_o'brien", "ax\\back", "ax_\\'both'")


@pytest.mark.parametrize("mode", ["inline", "include"])
def test_quoted_labels_round_trip_through_problem_files(tmp_path, mode):
    axioms = tuple(
        ontology.OntologyAxiom(label, kif.parse_kif(f"(p a{i})")[0])
        for i, label in enumerate(AWKWARD_LABELS)
    )
    ont = dataclasses.replace(_mini_ontology(), axioms=axioms,
                              vocabulary=frozenset({"p", "a0", "a1", "a2"}))
    rendered = tptp.render_axioms(ont)
    assert "fof('ax_o\\'brien', axiom," in "\n".join(rendered.units)
    tptp.write_axiom_file(rendered, tmp_path / "axioms.ax")
    pf = write_problem(_cq(formula="(p a0)"), rendered, tmp_path,
                       include=Path("axioms.ax") if mode == "include" else None)
    read_axioms, _ = read_problem(pf.path)
    assert tuple(name for name, _ in read_axioms) == AWKWARD_LABELS


def test_unit_round_trip_random(tmp_path):
    formulas = genformulas.formulas(200, seed=31)
    path = tmp_path / "units.ax"
    path.write_text("\n".join(render_fof(f"u{i}", "axiom", f) for i, f in enumerate(formulas)))
    units = list(read_units(path))
    assert len(units) == len(formulas)
    for i, (unit, f) in enumerate(zip(units, formulas)):
        assert (unit.name, unit.role) == (f"u{i}", "axiom")
        assert alpha_equal(unit.formula, kif.universal_closure(f))


def _mini_ontology():
    axioms = (
        ontology.OntologyAxiom("ax_a", kif.parse_kif("(p a)")[0]),
        ontology.OntologyAxiom("ax_b", kif.parse_kif("(=> (p ?X) (q ?X))")[0]),
    )
    return ontology.Ontology(
        name="mini",
        axioms=axioms,
        structural_facts=(),
        vocabulary=frozenset({"p", "q", "a"}),
    )


def _mini_axioms():
    return tptp.render_axioms(_mini_ontology())


def _cq(cq_id="cq_sample_one", formula="(q a)"):
    return CompetencyQuestion(
        id=cq_id,
        polarity=Polarity.TRUTH,
        pattern=Pattern.ANTONYM_CLASS,
        formula=kif.parse_kif(formula)[0],
    )


def test_write_problem_inline(tmp_path):
    pf = write_problem(_cq(), _mini_axioms(), tmp_path)
    text = pf.path.read_text()
    assert pf.path.name == "cq_sample_one.p"
    assert text.splitlines()[:3] == [
        "% cq: cq_sample_one",
        "% pattern: antclass",
        "% polarity: truth",
    ]
    axioms, (conj_name, conj) = read_problem(pf.path)
    assert [n for n, _ in axioms] == ["ax_a", "ax_b"]
    assert conj_name == "cq_sample_one"
    assert kif.print_kif(conj) == "(q a)"


def test_write_problem_include_mode(tmp_path):
    ax_path = tmp_path / "axioms.ax"
    tptp.write_axiom_file(_mini_axioms(), ax_path)
    pf = write_problem(_cq(), _mini_axioms(), tmp_path, include=Path("axioms.ax"))
    assert "include('axioms.ax')." in pf.path.read_text()
    axioms, (conj_name, _) = read_problem(pf.path)
    assert len(axioms) == 2
    assert conj_name == "cq_sample_one"


@pytest.mark.parametrize("mode", ["inline", "include"])
def test_write_problem_checks_conjecture_against_axiom_symbols(tmp_path, mode):
    # the axioms use the symbol "a"; "a" and "a-" never collide, but the
    # conjecture symbol "a_" mangles onto the axiom symbol "a-"
    onto = _mini_ontology()
    clash = ontology.OntologyAxiom("ax_c", kif.parse_kif("(p a-)")[0])
    axioms = tptp.render_axioms(dataclasses.replace(onto, axioms=onto.axioms + (clash,)))
    with pytest.raises(Error, match="'a-' and 'a_' both mangle to 's__a_'"):
        write_problem(_cq(formula="(q a_)"), axioms, tmp_path,
                      include=Path("axioms.ax") if mode == "include" else None)


def test_distinct_kif_variables_stay_distinct(tmp_path):
    # ?x-y and ?x_y once both became Vx_y, which turned this formula, not
    # valid, into a tautology that proved
    assert (mangle_variable("x-y"), mangle_variable("x_y")) == ("Vx_2d_y", "Vx_5f_y")
    none = tptp.render_axioms(dataclasses.replace(_mini_ontology(), axioms=()))
    pf = write_problem(_cq(formula="(forall (?x-y ?x_y) (or (p ?x-y) (not (p ?x_y))))"),
                       none, tmp_path)
    axioms, (_, conjecture) = read_problem(pf.path)
    assert microprover.prove(axioms, conjecture, limit_seconds=10).szs is SzsStatus.GAVE_UP


def test_write_problem_renames_colliding_conjecture(tmp_path):
    warnings = []
    pf = write_problem(_cq(cq_id="ax_a"), _mini_axioms(), tmp_path,
                       warn=warnings.append)
    assert "\nfof(ax_a_conj, conjecture, " in pf.path.read_text(encoding="utf-8")
    assert warnings and "collides" in warnings[0]
    axioms, (conj_name, _) = read_problem(pf.path)
    assert conj_name == "ax_a_conj"
    assert [n for n, _ in axioms] == ["ax_a", "ax_b"]


def test_read_problem_rejects_missing_conjecture(tmp_path):
    p = tmp_path / "bad.p"
    p.write_text("fof(ax_a, axiom, s__p(s__a)).\n")
    with pytest.raises(Error, match="bad.p: no conjecture unit"):
        read_problem(p)


def test_read_problem_rejects_cnf(tmp_path):
    p = tmp_path / "bad.p"
    p.write_text("cnf(c1, axiom, s__p(s__a)).\nfof(c, conjecture, s__p(s__a)).\n")
    with pytest.raises(Error, match="bad.p:1: cannot parse cnf units"):
        read_problem(p)


def test_read_problem_rejects_second_conjecture(tmp_path):
    p = tmp_path / "bad.p"
    p.write_text(
        "fof(c1, conjecture, s__p(s__a)).\nfof(c2, conjecture, s__q(s__a)).\n"
    )
    with pytest.raises(Error, match="bad.p:2: second conjecture 'c2'"):
        read_problem(p)


def test_read_problem_skips_commented_out_units(tmp_path):
    p = tmp_path / "retired.p"
    p.write_text(
        "% retired: fof(old_ax, axiom, s__p).\n"
        "/* fof(older_ax, axiom, s__q).\n   % nested line comment */\n"
        "fof(ax_live, axiom, s__r). % trailing fof(tail_ax, axiom, s__s).\n"
        "fof(c, conjecture, s__p).\n"
    )
    axioms, (conj_name, _) = read_problem(p)
    assert [n for n, _ in axioms] == ["ax_live"]
    assert conj_name == "c"


def test_read_problem_resolves_includes_in_order(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "more.ax").write_text("fof(ax_b, axiom, s__q).\n")
    (tmp_path / "base.ax").write_text("fof(ax_a, axiom, s__p).\ninclude('sub/more.ax').\n")
    p = tmp_path / "prob.p"
    p.write_text("include('base.ax').\nfof(ax_c, axiom, s__r).\nfof(c, conjecture, s__p).\n")
    axioms, _ = read_problem(p)
    assert [n for n, _ in axioms] == ["ax_a", "ax_b", "ax_c"]


def test_read_problem_reads_disequality(tmp_path):
    p = tmp_path / "prob.p"
    p.write_text("fof(ax_a, axiom, s__a != s__b).\nfof(c, conjecture, s__p).\n")
    axioms, _ = read_problem(p)
    assert axioms == [("ax_a", kif.Not(kif.Equal(kif.Constant("a"), kif.Constant("b"))))]


def test_read_problem_rejects_question_role(tmp_path):
    p = tmp_path / "bad.p"
    p.write_text("fof(q1, question, s__p).\nfof(c, conjecture, s__p).\n")
    with pytest.raises(Error, match="bad.p:1: unsupported role 'question'"):
        read_problem(p)


@pytest.mark.parametrize(
    "formula",
    [
        "s__p <= s__q",  # reverse implication is outside the subset
        "s__p <~> s__q",
        "s__p => s__q => s__r",  # binary operands must be unitary
        "s__p s__q",
        "$true",
    ],
)
def test_read_problem_rejects_unread_fof(tmp_path, formula):
    p = tmp_path / "bad.p"
    p.write_text(f"fof(ax_a, axiom, {formula}).\nfof(c, conjecture, s__p).\n")
    with pytest.raises(Error, match="bad.p:1: "):
        read_problem(p)


@pytest.mark.parametrize("units, status", [
    # VX once read as X, which made this formula, not valid, a tautology
    (["fof(c, conjecture, ! [X, VX] : (p(X) | ~ p(VX)))."], "GaveUp"),
    # s__a once read as a, the same name
    (["fof(c, conjecture, (p(a) | ~ p(s__a)))."], "Error"),
    # and this axiom, satisfiable, as a contradiction that proved q
    (["fof(a, axiom, ? [X, VX] : (p(X) & ~ p(VX))).", "fof(c, conjecture, q)."], "GaveUp"),
], ids=["variables", "symbols", "axiom"])
def test_distinct_tptp_names_stay_distinct(tmp_path, units, status):
    p = tmp_path / "prob.p"
    p.write_text("\n".join(units) + "\n", encoding="utf-8")
    out = prover_cli.prove_problem(p, 10, microprover.MAX_LITERALS, microprover.MAX_CLAUSES)
    assert out.startswith(f"% SZS status {status} for prob.p\n")


def test_read_problem_rejects_a_name_spelled_two_ways_across_an_include(tmp_path):
    (tmp_path / "axioms.ax").write_text("fof(ax_a, axiom, s__p(s__a)).\n")
    p = tmp_path / "prob.p"
    p.write_text("include('axioms.ax').\nfof(c, conjecture, s__p(a)).\n")
    with pytest.raises(Error, match="prob.p:2: 's__a' and 'a' both read as 'a'"):
        read_problem(p)


@pytest.mark.parametrize(
    "text, reason",
    [
        ("fof(a, axiom, s__p)", "expected '.'"),
        ("fof(a, axiom, s__p.\n", "unclosed unit"),
        ("fof(a, axiom, s__p). /* open\n", "unterminated comment"),
        ("fof('a, axiom, s__p).\n", "unterminated quoted name"),
        ("stray fof(a, axiom, s__p).\n", "expected a unit"),
        ("include('bad.ax').\n", "include chain too deep"),  # the file includes itself
    ],
)
def test_read_units_rejects_malformed_files(tmp_path, text, reason):
    p = tmp_path / "bad.ax"
    p.write_text(text)
    with pytest.raises(Error, match=reason):
        list(read_units(p))


# --------------------------------------------------------------------------
# SZS parsing


def test_parse_szs_plain_statuses():
    assert parse_szs("% SZS status Theorem for x.p\n") == (SzsStatus.THEOREM, ())
    assert parse_szs("% SZS status Unsatisfiable for x.p\n")[0] is SzsStatus.THEOREM
    assert parse_szs("% SZS status CounterSatisfiable\n")[0] is SzsStatus.COUNTER_SATISFIABLE
    assert parse_szs("% SZS status MemoryOut\n")[0] is SzsStatus.RESOURCE_OUT
    assert parse_szs("% SZS status SomethingNew\n")[0] is SzsStatus.GAVE_UP
    assert parse_szs("no status line at all\n") == (SzsStatus.NO_STATUS, ())


def test_parse_szs_used_axioms_from_proof_block():
    out = "\n".join(
        [
            "% SZS status Theorem for p",
            "% SZS output start CNFRefutation for p",
            "fof(ax_b, axiom, stuff, file('/x/p.p', ax_b)).",
            "fof(ax_a, axiom, other).",
            "fof(ax_a, axiom, repeated).",
            "cnf(c12, plain, thing, inference(resolution, [], [c3, c4])).",
            "% SZS output end CNFRefutation for p",
        ]
    )
    status, used = parse_szs(out)
    assert status is SzsStatus.THEOREM
    assert used == ("ax_b", "ax_a")


@pytest.mark.parametrize("block", [
    # E: each input unit keeps its name and cites its source
    ["fof(ax1, axiom, s__p(s__a), file('/tmp/x.p', ax1)).",
     "fof(cq_goal, conjecture, s__q(s__a), file('/tmp/x.p', cq_goal)).",
     "cnf(c_0_2, negated_conjecture, ~s__q(s__a), inference(assume_negation, [], [cq_goal]))."],
    # Vampire: input units get the prover's own names
    ["fof(f1,axiom,(s__p(s__a)),file('/tmp/x.p',ax1)).",
     "fof(f2,conjecture,(s__q(s__a)),file('/tmp/x.p',cq_goal)).",
     "fof(f3,negated_conjecture,(~s__q(s__a)),inference(negated_conjecture,[],[f2]))."],
], ids=["e", "vampire"])
def test_parse_szs_names_source_axioms_only(block):
    out = "\n".join(["% SZS status Theorem for x", "% SZS output start CNFRefutation for x",
                     *block, "% SZS output end CNFRefutation for x"])
    assert parse_szs(out) == (SzsStatus.THEOREM, ("ax1",))


def test_parse_szs_ignores_block_without_theorem():
    out = "\n".join(
        [
            "% SZS status GaveUp for p",
            "% SZS output start Assurance",
            "fof(ax_a, axiom, x).",
            "% SZS output end Assurance",
        ]
    )
    assert parse_szs(out) == (SzsStatus.GAVE_UP, ())


def test_szs_render_parse_round_trip():
    for status in SzsStatus:
        used = ("ax_one", "ax_two") if status is SzsStatus.THEOREM else ()
        text = render_szs_output(status, used, problem="prob.p")
        back, back_used = parse_szs(text)
        assert back is status
        assert back_used == used


def test_szs_round_trip_quoted_names():
    used = AWKWARD_LABELS + ("ax_plain", "Capital")
    text = render_szs_output(SzsStatus.THEOREM, used)
    assert "fof('ax_o\\'brien', axiom, $true)." in text
    assert parse_szs(text) == (SzsStatus.THEOREM, used)
