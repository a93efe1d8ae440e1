"""Ontology loading, merging, ablation and the structural index."""

import dataclasses

import pytest

from conftest import ONT
from cqeval import Error, kif, ontology, tptp
from cqeval.ontology import (
    build_index,
    load_ontology,
    merge_ontologies,
)


def test_load_kif_fixture_core():
    core = load_ontology(ONT / "core.kif")
    assert core.name == "core"
    (ax,) = [ax for ax in core.axioms if ax.label == "ax_subclass_instances"]
    assert kif.print_kif(ax.formula) == (
        "(=> (and (subclass ?SUB ?SUPER) (instance ?X ?SUB)) (instance ?X ?SUPER))"
    )
    assert ax.text is None  # only an opaque TPTP unit needs its text
    assert {"instance", "subclass", "Entity", "Process", "Awake"} <= core.vocabulary
    assert ("subclass", "Speaking", "Vocalizing") in core.structural_facts


def test_load_kif_unlabeled_forms_get_sequential_names(tmp_path):
    p = tmp_path / "three.kif"
    p.write_text("(p a)\n;; label: ax_named\n(q b)\n(r c)\n")
    ont = load_ontology(p)
    assert [ax.label for ax in ont.axioms] == ["ax1", "ax_named", "ax3"]


def test_load_kif_duplicate_label_rejected(tmp_path):
    p = tmp_path / "dup.kif"
    p.write_text(";; label: ax_x\n(p a)\n;; label: ax_x\n(q b)\n")
    with pytest.raises(Error, match=f"duplicate axiom label 'ax_x' in {p}"):
        load_ontology(p)


def test_load_tptp_axiom_file(tmp_path):
    p = tmp_path / "axioms.ax"
    p.write_text(
        "fof(ax_one, axiom, s__p(s__a)).\n"
        "fof(ax_two, axiom, ! [VX] : (s__p(VX) => s__q(VX))).\n"
    )
    ont = load_ontology(p)
    assert [ax.label for ax in ont.axioms] == ["ax_one", "ax_two"]
    assert kif.print_kif(ont.axioms[0].formula) == "(p a)"


def test_load_tptp_keeps_opaque_units_verbatim(tmp_path):
    p = tmp_path / "mixed.ax"
    p.write_text(
        "% retired: fof(ax_old, axiom, s__p(s__a)).\n"
        "cnf(ax_cnf, axiom, ~ s__p(X) | s__q(X)).\n"
        "fof('ax quoted', axiom,\n    s__p(\"a distinct object\")).\n"
        "fof(ax_fof, axiom, s__p(s__a)).\n"
        "fof(ax_bare, axiom, p(a)).\n"  # s__p and p would read as one name
    )
    ont = load_ontology(p)
    assert [ax.label for ax in ont.axioms] == ["ax_cnf", "ax quoted", "ax_fof", "ax_bare"]
    assert [ax.formula is None for ax in ont.axioms] == [True, True, False, True]
    assert ont.axioms[3].text == "fof(ax_bare, axiom, p(a))."
    assert ont.axioms[0].text == "cnf(ax_cnf, axiom, ~ s__p(X) | s__q(X))."
    assert ont.axioms[1].text == "fof('ax quoted', axiom,\n    s__p(\"a distinct object\"))."
    assert tptp.render_axioms(ont).units[:2] == (ont.axioms[0].text, ont.axioms[1].text)


def test_load_tptp_rejects_conjecture(tmp_path):
    p = tmp_path / "bad.ax"
    p.write_text("fof(c, conjecture, s__p(s__a)).\n")
    with pytest.raises(Error, match="bad.ax:1: conjecture unit in an ontology file"):
        load_ontology(p)


def test_load_ontology_dispatches_on_suffix(tmp_path):
    k = tmp_path / "one.kif"
    k.write_text("(p a)\n")
    t = tmp_path / "one.ax"
    t.write_text("fof(ax_a, axiom, s__p(s__a)).\n")
    assert [ax.label for ax in load_ontology(k).axioms] == ["ax1"]
    assert [ax.label for ax in load_ontology(t).axioms] == ["ax_a"]


def without(ont, *labels):
    """A copy of ``ont`` with the named axioms removed, for ablation."""
    missing = set(labels) - {ax.label for ax in ont.axioms}
    if missing:
        raise KeyError(f"no such axioms: {sorted(missing)}")
    kept = tuple(ax for ax in ont.axioms if ax.label not in labels)
    return merge_ontologies(ont.name, dataclasses.replace(ont, axioms=kept))


def test_without_removes_axiom_and_refreshes_facts():
    dead = load_ontology(ONT / "deadliving.kif")
    ablated = without(dead, "ax_dead_unconscious")
    assert len(ablated.axioms) == len(dead.axioms) - 1
    assert "ax_dead_unconscious" not in {ax.label for ax in ablated.axioms}
    assert ("subAttribute", "Dead", "Unconscious") in dead.structural_facts
    assert ("subAttribute", "Dead", "Unconscious") not in ablated.structural_facts
    with pytest.raises(KeyError):
        without(dead, "ax_not_there")
    # the original is untouched
    assert "ax_dead_unconscious" in {ax.label for ax in dead.axioms}


def test_merge_ontologies_unions_vocabulary():
    core = load_ontology(ONT / "core.kif")
    extra = load_ontology(ONT / "domain.kif")
    merged = merge_ontologies("joint", core, extra)
    assert len(merged.axioms) == len(core.axioms) + len(extra.axioms)
    assert "CookingFat" in merged.vocabulary
    with pytest.raises(Error, match="duplicate axiom label '.*' in core"):
        merge_ontologies("twice", core, core)


# --------------------------------------------------------------------------
# structural index


def test_build_index_vocabulary_is_core_only(core_index):
    assert "Cooking" in core_index.vocabulary
    # Frying appears only in the extension, so it contributes an edge but
    # is not itself a core term
    assert "Frying" not in core_index.vocabulary
    assert "Cooking" in core_index.up["subclass"]["Frying"]


def test_index_closure_is_reflexive_transitive(core_index):
    anc = core_index.closure("Speaking", "subclass")
    assert {"Speaking", "Vocalizing", "Process", "Physical", "Entity"} <= anc
    assert "Object" not in anc


def test_index_up_accessor(core_index):
    assert core_index.up["subclass"]["Speaking"] == ("Vocalizing",)
    assert core_index.up["instance"]["Awake"] == ("ConsciousnessAttribute",)
    with pytest.raises(KeyError):
        core_index.up["sibling"]


def test_is_attribute(core_index):
    assert core_index.is_attribute("Awake")
    assert core_index.is_attribute("Asleep")
    assert not core_index.is_attribute("Melting")
    assert not core_index.is_attribute("NeverMentioned")


def test_build_index_detects_subclass_cycle(tmp_path):
    p = tmp_path / "loop.kif"
    edges = {("A", "B"), ("B", "C"), ("C", "A"), ("C", "D")}
    p.write_text("".join(f"(subclass {c} {u})\n" for c, u in sorted(edges)))
    ont = load_ontology(p)
    with pytest.raises(Error, match="subclass cycle: ") as e:
        build_index(ont)
    relation, _, steps = e.value.reason.partition(" cycle: ")
    assert relation == "subclass"
    path = steps.split(" -> ")
    assert len(path) == 4 and path[0] == path[-1]
    # read from child to parent, each step an input edge
    assert all(step in edges for step in zip(path, path[1:]))


def test_build_index_allows_instance_edges_without_cycle_check(tmp_path):
    # only the taxonomy relations are checked for cycles
    p = tmp_path / "inst.kif"
    p.write_text("(instance a b)\n(instance b a)\n")
    idx = build_index(load_ontology(p))
    assert idx.up["instance"] == {"a": ("b",), "b": ("a",)}
