"""Random instance generator: topology, weight schemes, determinism."""

import hashlib
import json

import pytest

import oracles
from scnptree.generator import (
    SCHEMES,
    assign_weights,
    broder_tree,
    generate_instance,
    instance_filename,
)


def test_broder_tree_is_a_tree():
    for n in (1, 2, 3, 7, 20, 50):
        edges = broder_tree(n, seed=n * 11)
        assert oracles.is_tree(n, edges)
        assert edges == tuple(sorted(tuple(sorted(e)) for e in edges))


def test_broder_tree_deterministic():
    assert broder_tree(12, 5) == broder_tree(12, 5)
    assert broder_tree(12, 5) != broder_tree(12, 6)


def test_generate_instance_deterministic():
    a = generate_instance(10, "type2", 3)
    b = generate_instance(10, "type2", 3)
    assert a == b


# SHA-256 over every field of generate_instance(n, scheme, seed) for
# n in (1, 2, 8, 30, 200) and seed in (0, 7), pinned so that a refactor of
# the generator cannot change an instance unnoticed.
_SCHEME_DIGESTS = {
    "unit": "c76d8fab452b74ce07c8ee4b1609f074e56fef122930a43fb370bc53c4da0b08",
    "type1": "19d712e8513b8936dd196ec4a850c959ea7c64d4c8bac1dfdf8ee0771e822ce6",
    "type2": "aded58b574549ee9d30811259446ce6197a636fd4c2b2333c889adcdc6330551",
    "type3": "0b8c0c0512e5f6b6e2afa740ea96413efff76cda7e316f4755046b33a8a2d7aa",
}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_generated_instances_match_their_pinned_digest(scheme):
    digest = hashlib.sha256()
    for n in (1, 2, 8, 30, 200):
        for seed in (0, 7):
            inst = generate_instance(n, scheme, seed)
            costs = None if inst.connection_cost is None else sorted(inst.connection_cost.items())
            payload = [inst.node_count, inst.edges, inst.survival_prob, inst.attack_cost, costs, inst.budget]
            digest.update(json.dumps(payload).encode())
    assert digest.hexdigest() == _SCHEME_DIGESTS[scheme]


def test_topology_and_probabilities_shared_across_schemes():
    instances = [generate_instance(11, scheme, 17) for scheme in SCHEMES]
    for other in instances[1:]:
        assert other.edges == instances[0].edges
        assert other.survival_prob == instances[0].survival_prob


def test_probabilities_rounded_to_two_decimals():
    inst = generate_instance(30, "unit", 9)
    for p in inst.survival_prob:
        assert 0.0 <= p <= 1.0
        assert abs(p * 100 - round(p * 100)) < 1e-9


def test_unit_scheme_weights():
    inst = generate_instance(12, "unit", 1)
    assert all(k == 1.0 for k in inst.attack_cost)
    assert inst.connection_cost is None
    assert inst.budget == pytest.approx(0.1 * 12)


def test_type1_scheme_ranges():
    inst = generate_instance(25, "type1", 2)
    assert all(1 <= k <= 10 and k == int(k) for k in inst.attack_cost)
    assert inst.connection_cost is not None
    assert len(inst.connection_cost) == 25 * 24 // 2
    assert all(1 <= c <= 10 and c == int(c) for c in inst.connection_cost.values())
    assert inst.budget == pytest.approx(0.1 * sum(inst.attack_cost))


def test_type2_scheme_ranges():
    inst = generate_instance(25, "type2", 2)
    assert all(1 <= k <= 100 and k == int(k) for k in inst.attack_cost)
    assert max(inst.attack_cost) > 10  # wider range than type1
    assert all(1 <= c <= 10 and c == int(c) for c in inst.connection_cost.values())


def test_type3_attack_cost_is_inverse_probability():
    inst = generate_instance(40, "type3", 6)
    for p, k in zip(inst.survival_prob, inst.attack_cost):
        if p == 0.0:
            assert k == 100.0
        else:
            assert k == pytest.approx(1.0 / p)


def test_type3_connection_cost_ranges():
    t3 = generate_instance(9, "type3", 21)
    assert len(t3.connection_cost) == 9 * 8 // 2
    assert all(1 <= c <= 10 and c == int(c) for c in t3.connection_cost.values())


def test_instance_filename():
    assert instance_filename(15, "type2", 7) == "tree_n15_type2_7.json"


def test_assign_weights_rejects_unknown_scheme():
    edges = broder_tree(5, 0)
    with pytest.raises(ValueError):
        assign_weights(edges, "bogus", 0)


def test_tree_sampler_hits_every_labeled_tree():
    seen = set()
    for seed in range(2000):
        seen.add(broder_tree(4, seed))
    assert seen == set(oracles.all_labeled_trees(4))
