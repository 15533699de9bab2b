"""Signed graphs, signed Laplacians, and spectral clustering recovery."""

import numpy as np
import pytest

from lexlearn.clustering import (
    SignedGraph,
    build_signed_graph,
    cluster,
    format_preview,
    save_clusters,
    signed_laplacian,
)
from lexlearn.errors import DataError
from lexlearn.induction import Lexicon
from lexlearn.numerics import sym_eig_smallest

from _worlds import (
    adjusted_rand_index,
    edge_array,
    embedding_table,
    planted_block_lexicon,
)


def two_word_setup(r1, r2):
    vec = np.array([1.0, 0.0, 0.0], dtype=np.float32)
    table = embedding_table({"a": vec.copy(), "b": vec.copy()})
    lex = Lexicon(("aff",), {"a": np.array([r1]), "b": np.array([r2])})
    return lex, table


class TestSignedGraph:
    def test_identical_embeddings_identical_ratings(self):
        lex, table = two_word_setup(3.0, 3.0)
        g = build_signed_graph(lex, "aff", table, knn=1, rho=2.0)
        assert len(g.edges) == 1
        i, j, w = g.edges[0]
        assert (i, j) == (0, 1)
        assert w == pytest.approx(1.0)

    def test_rating_gap_twice_rho_flips_to_minus_one(self):
        lex, table = two_word_setup(1.0, 5.0)
        g = build_signed_graph(lex, "aff", table, knn=1, rho=2.0)
        assert g.edges[0][2] == pytest.approx(-1.0)

    def test_planted_two_group_edge_signs(self):
        # one shared direction, two rating poles: every intra-group edge is
        # positive, every inter-group edge nonpositive
        rng = np.random.default_rng(50)
        dim = 12
        base = rng.standard_normal(dim)
        words, vecs, entries, group = [], {}, {}, {}
        for g_id, rating in ((0, 1.0), (1, 5.0)):
            for i in range(15):
                w = f"g{g_id}w{i}"
                words.append(w)
                vecs[w] = (base + 0.03 * rng.standard_normal(dim)).astype(np.float32)
                entries[w] = np.array([rating + rng.uniform(-0.05, 0.05)])
                group[w] = g_id
        lex = Lexicon(("aff",), entries)
        table = embedding_table(vecs)
        g = build_signed_graph(lex, "aff", table, knn=8, rho=2.0)
        for i, j, w in g.edges:
            same = group[g.node_words[i]] == group[g.node_words[j]]
            if same:
                assert w > 0
            else:
                assert w <= 0

    def test_zero_embedding_words_dropped(self):
        lex, table = two_word_setup(1.0, 2.0)
        lex.entries["ghost"] = np.array([3.0])
        g = build_signed_graph(lex, "aff", table, knn=1, rho=2.0)
        assert g.dropped_words == ("ghost",)
        assert "ghost" not in g.node_words

    @pytest.mark.parametrize("knn", [0, -1])
    def test_knn_below_one_rejected(self, knn):
        lex, table = two_word_setup(1.0, 2.0)
        with pytest.raises(ValueError, match="knn must be >= 1"):
            build_signed_graph(lex, "aff", table, knn=knn, rho=1.0)

    def test_too_few_usable_words(self):
        lex, table = two_word_setup(1.0, 2.0)
        with pytest.raises(DataError, match="knn"):
            build_signed_graph(lex, "aff", table, knn=5, rho=1.0)

    def test_default_rho_is_half_the_range(self):
        lex, table = two_word_setup(1.0, 5.0)
        g = build_signed_graph(lex, "aff", table, knn=1)
        assert g.rho == pytest.approx(2.0)


class TestSignedGraphBruteForce:
    @staticmethod
    def brute_force(g, lex, table, knn, clip):
        """{(i, j): w} from each node's knn most cosine-similar nodes."""
        vecs = table.matrix(g.node_words).astype(np.float64)
        unit = vecs / np.linalg.norm(vecs, axis=1)[:, None]
        ratings = [lex.entries[w][0] for w in g.node_words]
        n = len(unit)
        edges = {}
        for i in range(n):
            cos = np.clip(unit @ unit[i], -1.0, 1.0).tolist()
            nearest = sorted((j for j in range(n) if j != i), key=lambda j: -cos[j])
            for j in nearest[:knn]:
                base = max(cos[j], 0.0) if clip else cos[j]
                w = base * (1.0 - abs(ratings[i] - ratings[j]) / g.rho)
                if w != 0.0:
                    edges[min(i, j), max(i, j)] = w
        return edges

    @pytest.mark.parametrize("clip", [True, False])
    @pytest.mark.parametrize(
        "seed,n,dim,knn",
        [(60, 12, 3, 1), (61, 30, 4, 5), (62, 45, 2, 9), (63, 530, 5, 4)],
    )
    def test_edges_equal_brute_force(self, seed, n, dim, knn, clip):
        # integer ratings and rho=2 make some weights exactly zero; n=530
        # spans two 512-row similarity blocks
        rng = np.random.default_rng(seed)
        words = [f"w{i:03d}" for i in range(n)]
        table = embedding_table(
            {w: rng.standard_normal(dim).astype(np.float32) for w in words}
        )
        lex = Lexicon(
            ("aff",), {w: np.array([float(rng.integers(1, 6))]) for w in words}
        )
        g = build_signed_graph(
            lex, "aff", table, knn=knn, rho=2.0, clip_negative_cosine=clip
        )
        expected = self.brute_force(g, lex, table, knn, clip)
        pairs = [(int(i), int(j)) for i, j, _ in g.edges]
        assert all(i < j for i, j in pairs)
        assert pairs == sorted(set(pairs))  # sorted, no duplicates
        assert set(pairs) == set(expected)
        for i, j, w in g.edges:
            assert abs(w - expected[i, j]) <= 1e-12
        assert (g.edges["w"] < 0).any()
        assert clip or (g.edges["w"] > 0).any()


class TestSignedLaplacian:
    def test_single_positive_edge(self):
        g = SignedGraph(("a", "b"), edge_array([(0, 1, 1.0)]), "aff", 1.0)
        L = signed_laplacian(g)
        assert np.array_equal(L, np.array([[1.0, -1.0], [-1.0, 1.0]]))
        vals, _ = sym_eig_smallest(L, 2)
        assert vals == pytest.approx([0.0, 2.0], abs=1e-12)

    def test_single_negative_edge_splits_by_sign(self):
        g = SignedGraph(("a", "b"), edge_array([(0, 1, -1.0)]), "aff", 1.0)
        L = signed_laplacian(g)
        assert np.array_equal(L, np.array([[1.0, 1.0], [1.0, 1.0]]))
        vals, vecs = sym_eig_smallest(L, 2)
        assert vals == pytest.approx([0.0, 2.0], abs=1e-12)
        # smallest eigenvector opposes the two endpoints
        v = vecs[:, 0]
        assert np.sign(v[0]) != np.sign(v[1])

    def test_quadratic_form_identity(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            n = int(rng.integers(3, 10))
            edges = []
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.5:
                        edges.append((i, j, float(rng.normal())))
            if not edges or {i for e in edges for i in e[:2]} != set(range(n)):
                continue
            words = tuple(f"w{i}" for i in range(n))
            g = SignedGraph(words, edge_array(edges), "aff", 1.0)
            L = signed_laplacian(g)
            x = rng.standard_normal(n)
            direct = float(x @ L @ x)
            by_edges = sum(
                abs(w) * (x[i] - np.sign(w) * x[j]) ** 2 for i, j, w in edges
            )
            assert direct == pytest.approx(by_edges, abs=1e-10)

    def test_isolated_node_error_names_words(self):
        g = SignedGraph(("a", "b", "lonely"), edge_array([(0, 1, 1.0)]), "aff", 1.0)
        with pytest.raises(DataError, match="lonely"):
            signed_laplacian(g)

    def test_psd(self):
        rng = np.random.default_rng(52)
        lex, table, _ = planted_block_lexicon(3, per_block=12)
        g = build_signed_graph(lex, "aff", table, knn=6)
        L = signed_laplacian(g)
        vals, _ = sym_eig_smallest(L, 1)
        assert vals[0] >= -1e-8

    def test_normalized_variant(self):
        lex, table, _ = planted_block_lexicon(4, per_block=12)
        g = build_signed_graph(lex, "aff", table, knn=6)
        L = signed_laplacian(g, normalized=True)
        assert np.max(np.abs(L - L.T)) < 1e-12
        vals, _ = sym_eig_smallest(L, 1)
        assert vals[0] >= -1e-8


class TestEigensolveAtPaperScale:
    def test_3000_words_k50_knn20(self):
        # the CLI defaults (k=50, knn=20) on a lexicon of paper size
        lex, table, _ = planted_block_lexicon(12, per_block=750)
        L = signed_laplacian(build_signed_graph(lex, "aff", table, knn=20))
        assert L.shape == (3000, 3000)
        vals, vecs = sym_eig_smallest(L, 50)
        assert vals.shape == (50,) and vecs.shape == (3000, 50)
        resid = np.linalg.norm(L @ vecs - vecs * vals, axis=0)
        assert resid.max() <= 1e-8 * np.linalg.norm(L)
        assert np.max(np.abs(vecs.T @ vecs - np.eye(50))) <= 1e-10
        assert np.all(np.diff(vals) >= 0)


class TestCluster:
    def test_planted_two_groups(self):
        rng = np.random.default_rng(53)
        dim = 12
        base = rng.standard_normal(dim)
        words, vecs, entries, labels = [], {}, {}, []
        for g_id, rating in ((0, 1.0), (1, 5.0)):
            for i in range(15):
                w = f"g{g_id}w{i}"
                words.append(w)
                vecs[w] = (base + 0.03 * rng.standard_normal(dim)).astype(np.float32)
                entries[w] = np.array([rating + rng.uniform(-0.05, 0.05)])
                labels.append(g_id)
        lex = Lexicon(("aff",), entries)
        table = embedding_table(vecs)
        result = cluster(lex, "aff", table, 2, knn=8, rho=2.0, seed=0)
        pred = [result.assignment[w] for w in words]
        assert adjusted_rand_index(labels, pred) >= 0.9

    def test_positive_components_become_clusters(self):
        # two disconnected positive blobs (orthogonal directions, same
        # rating): k=2 assigns each component to its own cluster
        rng = np.random.default_rng(54)
        dim = 10
        d1 = np.eye(dim)[0]
        d2 = np.eye(dim)[1]
        vecs, entries = {}, {}
        for tag, d in (("a", d1), ("b", d2)):
            for i in range(10):
                w = f"{tag}{i}"
                vecs[w] = (d + 0.01 * rng.standard_normal(dim)).astype(np.float32)
                entries[w] = np.array([3.0])
        lex = Lexicon(("aff",), entries)
        table = embedding_table(vecs)
        result = cluster(lex, "aff", table, 2, knn=5, rho=1.0, seed=1)
        a_ids = {result.assignment[f"a{i}"] for i in range(10)}
        b_ids = {result.assignment[f"b{i}"] for i in range(10)}
        assert len(a_ids) == 1 and len(b_ids) == 1 and a_ids != b_ids

    def test_four_block_signed_recovery(self):
        lex, table, labels = planted_block_lexicon(7, per_block=25)
        result = cluster(lex, "aff", table, 4, knn=12, seed=7)
        words = sorted(lex.entries)
        truth = [labels[w] for w in words]
        pred = [result.assignment[w] for w in words]
        assert adjusted_rand_index(truth, pred) >= 0.9

    def test_edge_scale_invariance_of_assignment(self):
        # generic weights give a simple spectrum, so the embedding basis is
        # stable under scaling and a fixed k-means seed reproduces the
        # assignment; exactly degenerate eigenspaces would not pin a basis
        rng = np.random.default_rng(55)
        n = 40
        edges = [(i, i + 1, float(rng.normal())) for i in range(n - 1)]
        for _ in range(80):
            i, j = sorted(rng.choice(n, size=2, replace=False))
            edges.append((int(i), int(j), float(rng.normal())))
        edges = tuple(dict(((i, j), (i, j, w)) for i, j, w in edges).values())
        words = tuple(f"w{i}" for i in range(n))
        from lexlearn.numerics import kmeans

        def assignment_from(edge_set):
            gg = SignedGraph(words, edge_array(edge_set), "aff", 1.0)
            L = signed_laplacian(gg)
            vals, vecs = sym_eig_smallest(L, 4)
            norms = np.linalg.norm(vecs, axis=1)
            rows = vecs.copy()
            rows[norms > 0] /= norms[norms > 0][:, None]
            return kmeans(rows, 4, restarts=5, seed=3), L

        base, L1 = assignment_from(edges)
        scaled, L2 = assignment_from(tuple((i, j, 3.7 * w) for i, j, w in edges))
        assert np.allclose(L2, 3.7 * L1)
        assert np.array_equal(base, scaled)

    def test_no_silent_word_loss(self):
        lex, table, _ = planted_block_lexicon(9, per_block=10)
        lex.entries["ghost"] = np.array([2.0])
        result = cluster(lex, "aff", table, 4, knn=6, seed=2)
        assert set(result.assignment) | set(result.dropped_words) == set(lex.entries)
        assert "ghost" in result.dropped_words

    def test_deterministic(self):
        lex, table, _ = planted_block_lexicon(10, per_block=10)
        a = cluster(lex, "aff", table, 3, knn=6, seed=5)
        b = cluster(lex, "aff", table, 3, knn=6, seed=5)
        assert a.assignment == b.assignment

    def test_k_bounds(self):
        lex, table, _ = planted_block_lexicon(11, per_block=5)
        with pytest.raises(ValueError):
            cluster(lex, "aff", table, 1, knn=3)
        with pytest.raises(ValueError):
            cluster(lex, "aff", table, 500, knn=3)


class TestExport:
    def test_tsv_columns_and_pole_ordering(self, tmp_path):
        lex, table, _ = planted_block_lexicon(12, per_block=10)
        result = cluster(lex, "aff", table, 4, knn=6, seed=0)
        path = tmp_path / "clusters.tsv"
        save_clusters(result, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "cluster_id\tword\trating\tcluster_mean_rating\tmanual_label"
        rows = [l.split("\t") for l in lines[1:]]
        assert len(rows) == len(result.assignment)
        assert all(len(r) == 5 and r[4] == "" for r in rows)
        preview = format_preview(result, top=5)
        assert "highest aff cluster" in preview
        assert "lowest aff cluster" in preview

    def test_high_pole_sorted_descending(self):
        lex, table, _ = planted_block_lexicon(13, per_block=10)
        result = cluster(lex, "aff", table, 4, knn=6, seed=1)
        overall = np.mean([r for c in result.clusters for _, r in c])
        for c, members in enumerate(result.clusters):
            ratings = [r for _, r in members]
            if result.cluster_means[c] >= overall:
                assert ratings == sorted(ratings, reverse=True)
            else:
                assert ratings == sorted(ratings)
