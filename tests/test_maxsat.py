import itertools

from tanglewalk import build_topology, export_wcnf

from helpers import eval_clause, parse_wcnf


def placement_var(s, l, p, num_logical, num_physical):
    """The documented number of "logical l sits on physical p in segment s"."""
    return 1 + (s * num_logical + l) * num_physical + p


class TestExport:
    def test_no_interactions_hard_only(self):
        text = export_wcnf([], build_topology("linear", 2))
        _, hard, soft = parse_wcnf(text)
        assert soft == []
        assert hard == []  # no logical qubits, nothing to constrain

    def test_single_pair_on_two_qubit_line(self):
        topo = build_topology("linear", 2)
        num_vars, hard, soft = parse_wcnf(export_wcnf([(0, 1)], topo, swap_depth=0))
        # 2 x 2 placement variables, then one aux for the one connected pair
        assert num_vars == 5
        assert soft == [(1, [5])]
        # both placements of two logical qubits on the line satisfy the soft clause
        for phys0, phys1 in [(0, 1), (1, 0)]:
            assignment = {v: False for v in range(1, num_vars + 1)}
            assignment[placement_var(0, 0, phys0, 2, 2)] = True
            assignment[placement_var(0, 1, phys1, 2, 2)] = True
            assignment[5] = True
            assert all(eval_clause(c, assignment) for c in hard)
            assert all(eval_clause(c, assignment) for _, c in soft)

    def test_identity_assignment_satisfies_hard_clauses(self):
        # Staying put is always legal, for any swap depth.
        topo = build_topology("grid", (2, 2))
        num_vars, hard, _ = parse_wcnf(export_wcnf([(0, 1), (1, 2, 3)], topo, swap_depth=2))
        assignment = {v: False for v in range(1, num_vars + 1)}
        for s in range(3):
            for l in range(4):
                assignment[placement_var(s, l, l, 4, 4)] = True
        assert all(eval_clause(c, assignment) for c in hard)

    def test_hops_must_pair_into_swaps(self):
        # grid:2x2 is a 4-cycle.  With all four qubits occupied, rotating every
        # logical one step around it is a chain of legal hops but not a swap
        # layer; only the swap-pairing clauses tell the two apart.
        topo = build_topology("grid", (2, 2))
        num_vars, hard, _ = parse_wcnf(export_wcnf([(0, 1), (2, 3), (0, 3)], topo, swap_depth=1))

        def hard_clauses_hold(before, after):
            assignment = {v: False for v in range(1, num_vars + 1)}
            for s, placement in enumerate((before, after)):
                for l, p in enumerate(placement):
                    assignment[placement_var(s, l, p, 4, 4)] = True
            return all(eval_clause(c, assignment) for c in hard)

        identity = (0, 1, 2, 3)
        rotation = (1, 3, 0, 2)  # logical on 0 -> 1 -> 3 -> 2 -> 0
        swap_layer = (1, 0, 3, 2)  # SWAP(0, 1) and SWAP(2, 3)
        assert all(topo.coupled(p, q) for p, q in zip(identity, rotation))
        assert hard_clauses_hold(identity, swap_layer)
        assert not hard_clauses_hold(identity, rotation)

    def test_clause_growth_is_polynomial(self):
        counts = []
        for n in (3, 4, 5):
            topo = build_topology("linear", n)
            interactions = [(i, i + 1) for i in range(n - 1)]
            num_vars, hard, soft = parse_wcnf(export_wcnf(interactions, topo, swap_depth=1))
            counts.append((num_vars, len(hard) + len(soft)))
        # loose cubic bound in qubits x depth x interactions
        for n, (num_vars, num_clauses) in zip((3, 4, 5), counts):
            budget = 40 * (n**2) * 2 * n
            assert num_vars < budget and num_clauses < budget

    def test_max_order_cap_skips_large_interactions(self):
        topo = build_topology("linear", 5)
        num_vars, _, soft = parse_wcnf(export_wcnf([(0, 1, 2, 3, 4), (0, 1)], topo, max_order=3))
        # 5 x 5 placement variables, then one aux per edge for (0, 1) only
        assert num_vars == 25 + 4
        assert soft == [(1, [26, 27, 28, 29])]

    def test_header_styles(self):
        classic = export_wcnf([(0, 1)], build_topology("linear", 2))
        assert classic.startswith("p wcnf ")


class TestBruteForce:
    def test_swap_layer_helps(self):
        # On a 3-line, (0, 1), (1, 2) and (0, 2) cannot all be adjacent at
        # once; one swap layer lets a layout reward all three.  Every chain of
        # placements is scored on the exported formula itself.
        topo = build_topology("linear", 3)
        interactions = [(0, 1), (1, 2), (0, 2)]
        placements = list(itertools.permutations(range(3)))  # logical l on perm[l]

        def swap_layer(a, b):
            moved = {(p, q) for p, q in zip(a, b) if p != q}
            return all(topo.coupled(p, q) and (q, p) in moved for p, q in moved)

        best = {}
        for depth in (0, 1):
            num_vars, hard, soft = parse_wcnf(export_wcnf(interactions, topo, swap_depth=depth))
            first_aux = placement_var(depth + 1, 0, 0, 3, 3)  # just past the placements
            aux_defs = {v: [c for c in hard if -v in c] for v in range(first_aux, num_vars + 1)}
            scores = []
            for chain in itertools.product(placements, repeat=depth + 1):
                assignment = {
                    placement_var(s, l, p, 3, 3): True
                    for s, perm in enumerate(chain)
                    for l, p in enumerate(perm)
                }
                for v, defs in aux_defs.items():  # true exactly when allowed
                    assignment[v] = all(eval_clause(c, assignment | {v: True}) for c in defs)
                legal = all(swap_layer(a, b) for a, b in zip(chain, chain[1:]))
                assert all(eval_clause(c, assignment) for c in hard) == legal
                if legal:
                    scores.append(sum(w for w, c in soft if eval_clause(c, assignment)))
            best[depth] = max(scores)
        assert best == {0: 2, 1: 3}
