from itertools import combinations, product
from math import comb

import numpy as np
import pytest

from fiberalloc import (
    boundary_strata,
    classify_orthant,
    crossing_parameters,
    enumerate_layer,
    extremal_signature,
    hinge_count,
    layer_adjacency_graph,
    reciprocal_hinges,
)
from conftest import model_with_b, random_model


def brute_force_layers(b):
    """Oracle: scan all 2^n sign vectors, grouping by entry count."""
    n = len(b)
    layers = {l: [] for l in range(n + 1)}
    for sigma in product([-1, 1], repeat=n):
        l = sum(1 for i in range(n) if sigma[i] * b[i] > 0)
        layers[l].append(sigma)
    return layers


def brute_force_hinge_pairs(b, l):
    """Oracle: all same-layer signature pairs differing in exactly 2 indices."""
    sigs = brute_force_layers(b)[l]
    pairs = []
    for sa, sb in combinations(sigs, 2):
        diff = [i for i in range(len(b)) if sa[i] != sb[i]]
        if len(diff) == 2:
            pairs.append((sa, sb))
    return pairs


class TestClassify:
    def test_extremal_positive(self, m2):
        sig = classify_orthant(m2, (1, -1))
        assert sig.layer == 2
        assert sig.kind == "extremal-positive"
        assert sig.entry_set == {0, 1}

    def test_extremal_negative(self, m2):
        sig = classify_orthant(m2, (-1, 1))
        assert sig.layer == 0
        assert sig.kind == "extremal-negative"

    def test_transitional_n3(self, m3):
        sig = classify_orthant(m3, (1, 1, 1))
        assert sig.entry_set == {0, 1}
        assert sig.exit_set == {2}
        assert sig.layer == 2
        assert sig.kind == "transitional"

    def test_extremal_signature_helper(self, m3):
        pos = extremal_signature(m3, "positive")
        neg = extremal_signature(m3, "negative")
        assert pos.sigma == (1, 1, -1)
        assert neg.sigma == (-1, -1, 1)


class TestLayers:
    def test_counts_n3(self, m3):
        assert len(enumerate_layer(m3, 1)) == 3
        assert [s.sigma for s in enumerate_layer(m3, 0)] == [(-1, -1, 1)]

    def test_n5_against_brute_force(self):
        rng = np.random.default_rng(61)
        m = random_model(rng, 5)
        sigs = enumerate_layer(m, 2)
        assert len(sigs) == 10
        oracle = {tuple(s) for s in brute_force_layers(m.b)[2]}
        assert {s.sigma for s in sigs} == oracle

    def test_partition_sums_to_2n(self):
        rng = np.random.default_rng(67)
        for n in range(2, 13):
            m = model_with_b(rng.uniform(0.2, 1.0, size=n) * rng.choice([-1, 1], size=n))
            seen = set()
            for l in range(n + 1):
                sigs = enumerate_layer(m, l)
                assert len(sigs) == comb(n, l)
                seen.update(s.sigma for s in sigs)
            assert len(seen) == 2**n


class TestBoundaryStrata:
    def test_transitional_n3(self, m3):
        sig = classify_orthant(m3, (1, 1, 1))  # entry {0,1}, exit {2}
        strata = boundary_strata(m3, sig)
        faces = {s.indices: s.kind for s in strata if s.dimension == 2}
        assert faces == {frozenset({0}): "entry-portal-face",
                         frozenset({1}): "entry-portal-face",
                         frozenset({2}): "exit-portal-face"}
        codim2 = {s.indices: s.kind for s in strata if s.dimension == 1}
        assert codim2 == {frozenset({0, 2}): "hinge",
                          frozenset({1, 2}): "hinge",
                          frozenset({0, 1}): "entry-fold"}

    def test_extremal_has_no_hinges(self):
        rng = np.random.default_rng(71)
        for n in range(2, 7):
            m = random_model(rng, n)
            sig = extremal_signature(m, "positive")
            strata = boundary_strata(m, sig)
            kinds = [s.kind for s in strata]
            assert kinds.count("hinge") == 0
            assert kinds.count("exit-portal-face") == 0
            assert kinds.count("entry-fold") == comb(n, 2)

    def test_n2_transitional(self, m2):
        sig = classify_orthant(m2, (1, 1))
        strata = boundary_strata(m2, sig)
        kinds = sorted(s.kind for s in strata)
        assert kinds == ["entry-portal-face", "exit-portal-face", "hinge"]


class TestReciprocalHinges:
    def test_small_case_counts(self, m3):
        assert len(reciprocal_hinges(m3, 1)) == 3
        rng = np.random.default_rng(73)
        m4 = random_model(rng, 4)
        assert len(reciprocal_hinges(m4, 2)) == 12

    def test_n6_brute_force(self):
        rng = np.random.default_rng(79)
        m = random_model(rng, 6)
        # (1/2) C(6,3) * 3 * 3 = C(6,2) C(4,2) = 90
        hinges = reciprocal_hinges(m, 3)
        assert len(hinges) == 90
        oracle = brute_force_hinge_pairs(m.b, 3)
        assert len(oracle) == 90
        got = {frozenset((h.orthants[0].sigma, h.orthants[1].sigma)) for h in hinges}
        want = {frozenset((sa, sb)) for sa, sb in oracle}
        assert got == want

    def test_extremal_layers_have_none(self, m3):
        assert reciprocal_hinges(m3, 0) == reciprocal_hinges(m3, 3) == []

    def test_hinge_indices_pair_entry_with_exit(self, m3):
        for h in reciprocal_hinges(m3, 1):
            a, b = h.orthants
            assert a.layer == b.layer == 1
            i, j = sorted(h.indices)
            assert {a.sigma[i] != b.sigma[i], a.sigma[j] != b.sigma[j]} == {True}
            assert len(h.indices & a.entry_set) == 1
            assert len(h.indices & a.exit_set) == 1

    def test_both_closed_forms_match_enumeration(self):
        rng = np.random.default_rng(83)
        for n in range(2, 11):
            m = model_with_b(rng.uniform(0.2, 1.0, size=n) * rng.choice([-1, 1], size=n))
            for l in range(1, n):
                count = len(reciprocal_hinges(m, l))
                assert count == hinge_count(n, l) == comb(n, 2) * comb(n - 2, l - 1)

    def test_central_layer_maximality(self):
        for n in range(3, 11):
            counts = [hinge_count(n, l) for l in range(1, n)]
            peak = max(counts)
            maximizers = {l for l, c in zip(range(1, n), counts) if c == peak}
            assert maximizers <= {n // 2, (n + 1) // 2}
            assert n // 2 in maximizers


class TestAdjacencyGraph:
    def test_triangle(self, m3):
        g = layer_adjacency_graph(m3, 1)
        assert len(g["nodes"]) == 3
        assert len(g["edges"]) == 3
        assert g["connected"]

    def test_n2(self, m2):
        g = layer_adjacency_graph(m2, 1)
        assert len(g["nodes"]) == 2
        assert len(g["edges"]) == 1

    def test_n5_l2(self):
        rng = np.random.default_rng(89)
        m = random_model(rng, 5)
        g = layer_adjacency_graph(m, 2)
        assert len(g["nodes"]) == 10
        assert len(g["edges"]) == 30
        assert g["connected"]


class TestTraversalConsistency:
    def test_generic_fibers_climb_layers_one_at_a_time(self):
        rng = np.random.default_rng(97)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            m = random_model(rng, n)
            tr = crossing_parameters(m, rng.normal(size=m.m))
            layers = [s.layer for s in tr.orthant_sequence]
            assert layers == list(range(n + 1))
