import ast
import hashlib
import itertools
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicmaps.dataset import (
    NO_FILTER,
    NORM_ONLY,
    STRICT_ORTHONORMAL,
    DatasetRecord,
    EnumConfig,
    generate_dataset,
    passes_filter,
    read_output,
    stats,
    unit_norm,
    write_output,
)
from cubicmaps import dataset
from cubicmaps.dataset import _det3, _dot, _filtered_subspaces
from cubicmaps.linsys import (
    DEFAULT_SCAN_BOUND,
    FIVE_POINT,
    SIX_POINT,
    CubicSystem,
    PointConfig,
    gf_rref,
    iter_subspaces,
    iter_vectors,
    make_plane,
    reduced_generator_system,
    reference_system,
    vanishing_cubics,
)
from cubicmaps.finitefield import build_field
from cubicmaps.forms import TernaryForm
from cubicmaps.surjectivity import label_plane

CASE46 = ((1, 0, 0, 0, 0), (0, 0, 0, 1, 0), (1, 1, 0, 0, 1))


class TestFilters:
    def test_unit_norm_gf2_is_odd_weight(self):
        assert unit_norm((1, 0, 0, 0, 0), 2)
        assert unit_norm((1, 1, 1, 0, 0), 2)
        assert not unit_norm((1, 1, 0, 0, 0), 2)
        assert not unit_norm((0, 0, 0, 0, 0), 2)

    def test_unit_norm_gf3(self):
        assert unit_norm((1, 0, 0, 0), 3)
        assert unit_norm((2, 0, 0, 0), 3)      # 4 = 1 mod 3
        assert unit_norm((1, 1, 1, 1), 3)      # 4 = 1 mod 3
        assert not unit_norm((1, 2, 2, 0), 3)  # 9 = 0 mod 3
        assert not unit_norm((1, 1, 1, 0), 3)  # 3 = 0 mod 3

    def test_passes_filter_modes(self):
        v, u, t = CASE46
        assert passes_filter(NORM_ONLY, v, u, t, 2)
        assert passes_filter(NO_FILTER, v, u, t, 2)
        assert not passes_filter(STRICT_ORTHONORMAL, v, u, t, 2)

    def test_strict_requires_pairwise_orthogonality(self):
        v = (1, 0, 0, 0, 0)
        u = (0, 1, 0, 0, 0)
        t = (0, 0, 1, 0, 0)
        assert passes_filter(STRICT_ORTHONORMAL, v, u, t, 2)
        assert not passes_filter(STRICT_ORTHONORMAL, v, (1, 1, 1, 0, 0), t, 2)


class TestEnumConfig:
    def test_case_resolution(self):
        cfg = EnumConfig(FIVE_POINT)
        assert cfg.case == FIVE_POINT
        assert cfg.system.dim == 5
        assert cfg.p == 2

    def test_custom_system(self):
        system = reference_system(SIX_POINT, build_field(2))
        cfg = EnumConfig(system)
        assert cfg.case == "custom"
        assert cfg.system is system

    def test_custom_system_field_mismatch(self):
        system = reference_system(SIX_POINT, build_field(2))
        with pytest.raises(ValueError):
            EnumConfig(system, p=3)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            EnumConfig("no_such_case")
        with pytest.raises(ValueError):
            EnumConfig(FIVE_POINT, p=4)
        with pytest.raises(ValueError):
            EnumConfig(FIVE_POINT, filter_mode="bogus")

    @pytest.mark.parametrize("case", [FIVE_POINT, SIX_POINT])
    def test_scan_bound_is_the_exhaustive_constant(self, case):
        # the label-gf2 benchmark workload reads it to confirm labels are proved
        cfg = EnumConfig(case)
        assert cfg.scan_bound == DEFAULT_SCAN_BOUND == 9
        with pytest.raises(AttributeError):
            cfg.scan_bound = 2
        with pytest.raises(TypeError):
            EnumConfig(case, scan_bound=2)


class TestGeneration:
    def test_five_point_counts(self, five_records):
        summary = stats(five_records)
        assert summary["count"] == 3240
        assert summary["positives"] == 144
        assert summary["negatives"] == 3096

    def test_five_point_contains_case46_with_label_1(self, five_records):
        matches = [r for r in five_records if r.key == CASE46]
        assert len(matches) == 1
        assert matches[0].label == 1

    def test_five_point_boundary_records(self, five_records):
        assert five_records[0].key == ((0, 0, 0, 0, 1), (0, 0, 0, 1, 0), (0, 1, 0, 0, 0))
        assert five_records[0].label == 0
        assert five_records[-1].key == ((1, 1, 1, 1, 1), (1, 1, 1, 0, 0), (1, 1, 0, 1, 0))
        assert five_records[-1].label == 0

    def test_six_point_all_labels_zero(self, six_records):
        summary = stats(six_records)
        assert summary["count"] == 336
        assert summary["positives"] == 0

    def test_records_are_lexicographically_ordered(self, five_records):
        keys = [r.key for r in five_records]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_strict_filter_counts(self):
        records = generate_dataset(EnumConfig(FIVE_POINT, filter_mode=STRICT_ORTHONORMAL))
        summary = stats(records)
        assert summary["count"] == 456
        assert summary["positives"] == 24
        assert all(r.key != CASE46 for r in records)

    def test_strict_is_a_subset_of_norm_only(self, five_records):
        strict = generate_dataset(EnumConfig(FIVE_POINT, filter_mode=STRICT_ORTHONORMAL))
        norm = {r.key: r.label for r in five_records}
        for r in strict:
            assert norm[r.key] == r.label

    def test_unfiltered_counts(self):
        records = generate_dataset(EnumConfig(SIX_POINT, filter_mode=NO_FILTER))
        assert stats(records) == {
            "count": 2520, "positives": 0, "negatives": 2520, "positive_rate": 0.0,
        }

    def test_custom_six_point_system_counts(self):
        pts = PointConfig(((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 3, 1), (3, 2, 1)))
        records = generate_dataset(EnumConfig(vanishing_cubics(pts, build_field(2))))
        assert (stats(records)["count"], stats(records)["positives"]) == (240, 24)

    @pytest.mark.parametrize("jobs", [0, 2])
    def test_jobs_other_than_one_raise(self, jobs):
        with pytest.raises(ValueError, match="jobs must be 1"):
            generate_dataset(EnumConfig(SIX_POINT), jobs=jobs)

    def test_labels_depend_only_on_the_plane(self, five_records):
        # records spanning the same coefficient subspace carry equal labels
        from cubicmaps.linsys import gf_rref
        by_plane = {}
        for r in five_records:
            key, _ = gf_rref(2, r.key)
            by_plane.setdefault(key, set()).add(r.label)
        assert all(len(labels) == 1 for labels in by_plane.values())


# sha256 of write_output for each GF(2) case and filter; the norm pair is the
# perfbench golden pair
DATASET_SHA256 = {
    (FIVE_POINT, NORM_ONLY): "761ae13cb89441362ba0ace22c7d54ba66646ad34462233a1465d1fdd4f30022",
    (FIVE_POINT, STRICT_ORTHONORMAL):
        "360635313ac94b0e340cad4eba09ff1aedf537c6496e1262f8bd6780b9f8f9f5",
    (FIVE_POINT, NO_FILTER): "4da7ca3f571d9b205d9e1f5d92bdab3a74e671fdfe87c0b4c343d3ce382c78dc",
    (SIX_POINT, NORM_ONLY): "c5ef0cca2b421410450b483583990450e87df4eae1475edea4ca71aac31030bf",
    (SIX_POINT, STRICT_ORTHONORMAL):
        "6b9bf6b8bad912a56a133a06c51dd8ecf5715e4f9400933de4f0a053068bab88",
    (SIX_POINT, NO_FILTER): "abc84ae703bb3ac9ec5273869fee30896c786de9e1d14a4c2bf392d84d7861b9",
}


class TestOutputBytes:
    @pytest.mark.parametrize("case, mode", sorted(DATASET_SHA256))
    def test_pinned_sha256(self, case, mode, tmp_path):
        path = tmp_path / "data.txt"
        write_output(generate_dataset(EnumConfig(case, filter_mode=mode)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == DATASET_SHA256[case, mode]


class TestLabeledSubspaces:
    @pytest.mark.parametrize("case, count", [(FIVE_POINT, 140), (SIX_POINT, 14)])
    def test_only_subspaces_holding_a_triple_are_labeled(self, case, count, monkeypatch,
                                                          five_records, six_records):
        labeled = []
        walk = dataset.walk_planes

        def counting_walk(system, subspaces, pencils):
            for rows, plane in zip(subspaces, walk(system, subspaces, pencils)):
                labeled.append(rows)
                yield plane

        monkeypatch.setattr(dataset, "walk_planes", counting_walk)
        records = generate_dataset(EnumConfig(case))
        assert records == (five_records if case == FIVE_POINT else six_records)
        assert len(labeled) == len(set(labeled)) == count

    def test_one_call_labels_through_one_walk_and_one_memo(self, monkeypatch, five_records):
        memos, walks = [], []
        memo, walk = dataset.SystemPencils, dataset.walk_planes

        def recorded_memo(system):
            memos.append(memo(system))
            return memos[-1]

        def recorded_walk(system, subspaces, pencils):
            walks.append(list(subspaces))
            return walk(system, walks[-1], pencils)

        monkeypatch.setattr(dataset, "SystemPencils", recorded_memo)
        monkeypatch.setattr(dataset, "walk_planes", recorded_walk)
        cfg = EnumConfig(FIVE_POINT)
        counters = {}
        assert generate_dataset(cfg, counters=counters) == five_records
        assert len(memos) == 1
        assert walks == [[rows for rows, _ in _filtered_subspaces(cfg)]]
        assert counters == {"subspaces": 140, **memos[0].counters()}
        assert counters["system_pencils"] == 155

    def test_one_subspace_is_labeled_without_a_pool(self):
        f2 = build_field(2)
        cfg = EnumConfig(CubicSystem(f2, reference_system(SIX_POINT, f2).basis[:3], "custom"))
        [(rows, triples)] = _filtered_subspaces(cfg)
        label = label_plane(make_plane(cfg.system, *rows)).value
        assert generate_dataset(cfg) == [DatasetRecord(*triple, label) for triple in triples]
        assert (len(triples), label) == (24, 0)


def brute_force_triples(cfg):
    vectors = list(iter_vectors(cfg.p, cfg.system.dim))
    for v, u, t in itertools.product(vectors, repeat=3):
        key, _ = gf_rref(cfg.p, (v, u, t))
        if len(key) == 3 and passes_filter(cfg.filter_mode, v, u, t, cfg.p):
            yield v, u, t, key


def filter_first_triples(cfg):
    """An independent triple walk: each vector filtered first, then pairs, then triples.

    Fast enough over GF(3)^4, where brute force over GF(3)^12 is not; yields
    the triples lexicographically with their gf_rref keys.
    """
    p = cfg.p
    mode = cfg.filter_mode

    def orthogonal(a, b):
        return sum(x * y for x, y in zip(a, b)) % p == 0

    vectors = list(iter_vectors(p, cfg.system.dim))
    if mode != NO_FILTER:
        vectors = [w for w in vectors if unit_norm(w, p)]
    for v in vectors:
        us = [u for u in vectors if orthogonal(v, u)] if mode == STRICT_ORTHONORMAL else vectors
        for u in us:
            ts = [t for t in us if orthogonal(u, t)] if mode == STRICT_ORTHONORMAL else us
            for t in ts:
                key, _ = gf_rref(p, (v, u, t))
                if len(key) == 3:
                    yield v, u, t, key


def in_walk_order(cfg, reference):
    """(rows, triple) pairs of (v, u, t, key) tuples, by the key's iter_subspaces position."""
    position = {rows: i for i, rows in enumerate(iter_subspaces(cfg.p, cfg.system.dim, 3))}
    return [(key, triple) for _, triple, key in
            sorted((position[key], (v, u, t), key) for v, u, t, key in reference)]


def walked(cfg):
    """(rows, triple) pairs in the order _filtered_subspaces emits them."""
    return [(rows, triple) for rows, triples in _filtered_subspaces(cfg) for triple in triples]


def gf3_coordinate_system():
    f3 = build_field(3)
    return CubicSystem(f3, tuple(TernaryForm(f3, row) for row in (
        (1, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 1, 0, 0, 0),
        (0, 0, 0, 0, 0, 0, 0, 0, 0, 1),
    )), "custom")


class TestFilterFirst:
    @pytest.mark.parametrize("mode", [NORM_ONLY, STRICT_ORTHONORMAL, NO_FILTER])
    def test_same_triples_in_the_same_order(self, mode):
        configs = [EnumConfig(SIX_POINT, filter_mode=mode),
                   EnumConfig(gf3_coordinate_system(), p=3, filter_mode=mode)]
        if mode != NO_FILTER:
            configs.append(EnumConfig(FIVE_POINT, filter_mode=mode))
        for cfg in configs:
            assert walked(cfg) == in_walk_order(cfg, brute_force_triples(cfg))

    @pytest.mark.parametrize("mode", [NORM_ONLY, STRICT_ORTHONORMAL])
    def test_six_point_fixture_mod_3(self, mode):
        cfg = EnumConfig(reduced_generator_system(SIX_POINT, 3), p=3, filter_mode=mode)
        assert cfg.system.dim == 4
        want = in_walk_order(cfg, filter_first_triples(cfg))
        assert want and walked(cfg) == want


def per_triple_walk(cfg):
    """The walk without tables: _det3 and passes_filter on every triple of the sorted span.

    The reference the table walk must reproduce, triple for triple.
    """
    p, mode = cfg.p, cfg.filter_mode
    coords = [c for c in iter_vectors(p, 3) if any(c)]
    for rows in iter_subspaces(p, cfg.system.dim, 3):
        span = sorted((tuple(sum(x * y for x, y in zip(c, col)) % p for col in zip(*rows)), c)
                      for c in coords)
        if mode != NO_FILTER:
            span = [(w, c) for w, c in span if unit_norm(w, p)]
        triples = [(v, u, t) for v, a in span for u, b in span
                   if mode != STRICT_ORTHONORMAL or _dot(v, u, p) == 0
                   for t, c in span if _det3(a, b, c) % p and passes_filter(mode, v, u, t, p)]
        if triples:
            yield rows, triples


def fixture_mod_3(case, mode):
    return EnumConfig(reference_system(case, build_field(3)), p=3, filter_mode=mode)


class TestTableWalk:
    @pytest.mark.parametrize("p", [2, 3])
    def test_masks_are_the_nonzero_determinants(self, p):
        coords, masks = dataset._coordinate_tables(p)
        assert coords == tuple(c for c in iter_vectors(p, 3) if any(c))
        assert len(masks) == len(coords) == p**3 - 1
        for a, row in zip(coords, masks):
            assert len(row) == len(coords)
            for b, mask in zip(coords, row):
                assert mask == sum(1 << k for k, c in enumerate(coords) if _det3(a, b, c) % p != 0)

    @pytest.mark.parametrize("case, mode", sorted(DATASET_SHA256))
    def test_gf2_configurations(self, case, mode):
        cfg = EnumConfig(case, filter_mode=mode)
        assert list(_filtered_subspaces(cfg)) == list(per_triple_walk(cfg))

    @pytest.mark.parametrize("case, mode", [(SIX_POINT, NORM_ONLY), (SIX_POINT, STRICT_ORTHONORMAL),
                                            (FIVE_POINT, STRICT_ORTHONORMAL)])
    def test_fixtures_mod_3(self, case, mode):
        cfg = fixture_mod_3(case, mode)
        want = list(per_triple_walk(cfg))
        assert want and list(_filtered_subspaces(cfg)) == want

    @pytest.mark.parametrize("mode", [NORM_ONLY, STRICT_ORTHONORMAL])
    def test_each_span_vector_is_filtered_once_and_no_triple_is_tested(self, mode, monkeypatch):
        cfg = fixture_mod_3(SIX_POINT, mode)
        # the tables are built once per p, before the walk
        dataset._coordinate_tables(3)
        calls = []
        norm = dataset.unit_norm

        def counted(vec, p):
            calls.append(vec)
            return norm(vec, p)

        def refused(*args):
            raise AssertionError("the walk tests a triple")

        monkeypatch.setattr(dataset, "unit_norm", counted)
        monkeypatch.setattr(dataset, "_det3", refused)
        monkeypatch.setattr(dataset, "passes_filter", refused)
        assert list(_filtered_subspaces(cfg))
        assert len(calls) == len(list(iter_subspaces(3, 4, 3))) * (3**3 - 1)


class TestRoundTrip:
    def test_write_read_identity(self, six_records, tmp_path):
        path = tmp_path / "six.txt"
        write_output(six_records, path)
        assert read_output(path) == six_records

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 6), st.data())
    def test_arbitrary_records_round_trip(self, p, width, data):
        vector = st.lists(st.integers(0, p - 1), min_size=width, max_size=width)
        record = st.builds(DatasetRecord, vector, vector, vector, st.integers(0, 1))
        records = data.draw(st.lists(record, max_size=20))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.txt"
            write_output(records, path)
            assert read_output(path) == records

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 6), st.data())
    def test_bytes_are_the_record_lines(self, p, width, data):
        # few distinct vectors, so records repeat them in every position
        vector = st.lists(st.integers(0, p - 1), min_size=width, max_size=width).map(tuple)
        member = st.sampled_from(data.draw(st.lists(vector, min_size=1, max_size=4)))
        record = st.builds(DatasetRecord, member, member, member, st.integers(0, 1))
        records = data.draw(st.lists(record, max_size=30))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "records.txt"
            write_output(records, path)
            assert path.read_bytes() == "".join(f"{rec.key}: {rec.label}\n"
                                                for rec in records).encode()

    def test_exact_line_format(self, tmp_path):
        path = tmp_path / "one.txt"
        write_output([DatasetRecord(*CASE46, 1)], path)
        assert path.read_text() == "((1, 0, 0, 0, 0), (0, 0, 0, 1, 0), (1, 1, 0, 0, 1)): 1\n"

    @pytest.mark.parametrize("case", [FIVE_POINT, SIX_POINT])
    def test_read_equals_literal_eval(self, case, five_records, six_records, tmp_path):
        path = tmp_path / "data.txt"
        write_output(five_records if case == FIVE_POINT else six_records, path)
        want = []
        for line in path.read_text().splitlines():
            key_text, _, label = line.rpartition(": ")
            want.append(DatasetRecord(*ast.literal_eval(key_text), int(label)))
        got = read_output(path)
        assert got == want
        assert all(type(c) is int for rec in got for c in rec.v + rec.u + rec.t)

    def test_read_width_one_and_free_spacing(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("((1,), (0,), (1,)): 1\n( (1 ,0) ,(0,1),(1, 1), ): 0\n")
        with pytest.raises(ValueError, match="one.txt:2: width 2 differs"):
            read_output(path)
        path.write_text("((1,), (0,), (1,)): 1\n\n((0,),(1,),( 1 , )): 0\n")
        assert read_output(path) == [
            DatasetRecord((1,), (0,), (1,), 1), DatasetRecord((0,), (1,), (1,), 0),
        ]
        write_output(read_output(path), path)
        assert path.read_text() == "((1,), (0,), (1,)): 1\n((0,), (1,), (1,)): 0\n"

    @pytest.mark.parametrize("key", [
        "((1), (0), (1))",
        "((1, 0), (0, 1))",
        "((1, 0), (0, 1), (1, 1), (0, 0))",
        "((1,, 0), (0, 1), (1, 1))",
        "((1, 0), (0, 1), (1, (1)))",
        "[(1, 0), (0, 1), (1, 1)]",
    ])
    def test_read_rejects_non_triples(self, tmp_path, key):
        path = tmp_path / "bad.txt"
        path.write_text(key + ": 1\n")
        with pytest.raises(ValueError, match="bad.txt:1: bad triple"):
            read_output(path)

    def test_read_rejects_malformed_lines(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("((1, 0), (0, 1), (1, 1)); 1\n")
        with pytest.raises(ValueError, match="bad.txt:1"):
            read_output(path)

    def test_read_rejects_bad_labels(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("((1, 0), (0, 1), (1, 1)): 7\n")
        with pytest.raises(ValueError):
            read_output(path)
        path.write_text("((1,), (1,), (1,)): x\n")
        with pytest.raises(ValueError, match="bad.txt:1: bad label 'x'"):
            read_output(path)

    @pytest.mark.parametrize("line, message", [
        ("((1, 0), (0, 1, 0), (1, 1)): 1", "one length"),
        ("((), (), ()): 1", "one length"),
        ("((1, 0, 0), (0, 1, 0), (1, 1, 0)): 1", "width 3 differs from the first record's"),
        ("((1, 0), (0, 1), (1, -1)): 1", "non-negative integers"),
        ("((1, 0), (0, 1), (1, 0.5)): 1", "non-negative integers"),
        ("((1, 0), (0, 1), (1, True)): 1", "non-negative integers"),
    ])
    def test_read_rejects_ragged_or_bad_entries(self, tmp_path, line, message):
        path = tmp_path / "bad.txt"
        path.write_text("((1, 0), (0, 1), (1, 1)): 0\n" + line + "\n")
        with pytest.raises(ValueError, match=f"bad.txt:2: .*{message}"):
            read_output(path)


class TestRecords:
    def test_record_validation(self):
        with pytest.raises(ValueError):
            DatasetRecord((1, 0), (0, 1), (1, 1), 2)

    def test_record_equality_and_hash(self):
        a = DatasetRecord((1, 0), (0, 1), (1, 1), 0)
        b = DatasetRecord((1, 0), (0, 1), (1, 1), 0)
        assert a == b
        assert hash(a) == hash(b)

    def test_stats_rate(self, five_records):
        assert stats(five_records)["positive_rate"] == 144 / 3240
