import gc
import json
import re
import weakref

import numpy as np
import pytest

from coarsefine import cluster_tree
from coarsefine.cluster_tree import (
    TERMINAL,
    ClusterTree,
    assign_new_document,
    build_cluster_tree,
    compute_c,
    load_placements,
    load_tree,
    mean_prefix_overlap,
    place_documents,
    prefix_overlap_pair,
    row_dots,
    save_placements,
    save_tree,
)
from coarsefine.embed import DocumentMatrix
from coarsefine.errors import (DimMismatch, DuplicateId, EmptyCorpus, MissingCid, ParseError,
                              UnknownCid, UnknownDoc)
from helpers import (ReferenceLeafIndex, binary_depth2_tree, blob_embeddings, node,
                     reference_assign_new_document)


def blob_tree(counts=(40, 40, 40), dim=16, seed=0, expected=6, branching=8):
    emb = blob_embeddings(counts, dim=dim, seed=seed)
    return emb, build_cluster_tree(emb, k=branching, expected_clusters=expected, seed=seed)


def node_form(tree, tmp_path):
    """The root node of the tree's tree.json and its centroids.bin as a matrix,
    the two inputs load_tree hands to ClusterTree."""
    jp, bp = tmp_path / "tree.json", tmp_path / "centroids.bin"
    save_tree(tree, str(jp), str(bp))
    return json.loads(jp.read_text())["root"], np.fromfile(bp, "<f4").reshape(-1, tree.dim)


def test_compute_c_matches_hand_values():
    assert compute_c(10_000, 5_000) == 2
    assert compute_c(334_000, 5_000) == 67
    assert compute_c(3, 5_000) == 2
    assert compute_c(1, 1) == 2


def test_three_docs_widely_spread_become_three_leaves_in_input_order():
    emb = {
        "x": np.array([1, 0, 0, 0, 0, 0, 0, 0], dtype=np.float32),
        "y": np.array([0, 1, 0, 0, 0, 0, 0, 0], dtype=np.float32),
        "z": np.array([0, 0, 1, 0, 0, 0, 0, 0], dtype=np.float32),
    }
    tree = build_cluster_tree(emb, k=5, expected_clusters=5_000, seed=0)
    assert tree.cid_by_doc == {"x": (1, 0), "y": (2, 0), "z": (3, 0)}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_dict_is_stacked_once_in_its_order_and_a_document_matrix_is_owned_as_it_is(seed):
    emb, tree = blob_tree(seed=seed)
    assert isinstance(tree.documents, DocumentMatrix) and tree.documents.ids == list(emb)
    assert tree.documents.matrix.dtype == np.float32
    assert tree.documents.matrix.tobytes() == np.stack(list(emb.values())).tobytes()
    documents = DocumentMatrix(list(emb), np.stack(list(emb.values())))
    owned = build_cluster_tree(documents, k=8, expected_clusters=6, seed=seed)
    assert owned.documents is documents
    assert owned.cid_by_doc == tree.cid_by_doc
    assert owned.centroid_rows.tobytes() == tree.centroid_rows.tobytes()


@pytest.mark.parametrize("missing", ["d11a", "d11b", "d12a", "d22a"])
def test_a_leaf_member_without_a_row_in_the_document_matrix_is_rejected(tmp_path, missing):
    tree = binary_depth2_tree()
    kept = [d for d in tree.documents.ids if d != missing]
    short = DocumentMatrix(kept, np.stack([tree.documents[d] for d in kept]))
    cid = tree.cid_by_doc[missing]
    manifest, centroids = node_form(tree, tmp_path)
    with pytest.raises(ValueError, match=re.escape(f"leaf {cid} lists {missing!r}")):
        ClusterTree(manifest, centroids, k=2, c=2, seed=0, documents=short)


def test_empty_corpus_is_rejected():
    with pytest.raises(EmptyCorpus):
        build_cluster_tree({}, k=4, expected_clusters=10, seed=0)


def test_leaves_partition_the_corpus():
    emb, tree = blob_tree()
    seen = []
    for node in tree.leaves.values():
        seen.extend(node.members)
    assert sorted(seen) == sorted(emb)
    assert len(seen) == len(set(seen))


def test_cids_are_label_paths_with_single_terminal():
    emb, tree = blob_tree()
    for doc_id, cid in tree.cid_by_doc.items():
        assert cid[-1] == TERMINAL
        assert all(1 <= d <= tree.k for d in cid[:-1])
        assert cid.count(TERMINAL) == 1
        node = tree.root
        for digit in cid[:-1]:
            node = next(ch for ch in node.children if ch.label == digit)
        assert doc_id in node.members


def test_recursion_threshold_is_respected():
    emb, tree = blob_tree()

    def size(node):
        if not node.children:
            return len(node.members)
        return sum(size(ch) for ch in node.children)

    def walk(node, parent_size):
        if node.children:
            assert size(node) >= tree.c
            for child in node.children:
                walk(child, size(node))
        else:
            # a leaf is small, or splitting made no progress
            assert len(node.members) < tree.c or len(node.members) == parent_size

    for child in tree.root.children:
        walk(child, size(tree.root))


def test_build_is_deterministic():
    emb, t1 = blob_tree(seed=3)
    _, t2 = blob_tree(seed=3)
    assert t1.cid_by_doc == t2.cid_by_doc
    pairs = zip(sorted(t1.leaves), sorted(t2.leaves))
    assert all(a == b for a, b in pairs)


def test_assign_new_document_at_leaf_centroid_returns_that_leaf():
    emb, tree = blob_tree()
    cid, node = next(iter(tree.leaves.items()))
    assert assign_new_document(tree, node.centroid) == cid


def test_assign_new_document_recovers_blob_and_does_not_mutate():
    emb, tree = blob_tree(counts=(50, 50), expected=2, branching=2)
    before = {c: tuple(n.members) for c, n in tree.leaves.items()}
    rng = np.random.default_rng(9)
    point = 0.05 * rng.standard_normal(16)
    point[0] += 1.0
    point /= np.linalg.norm(point)
    cid = assign_new_document(tree, point.astype(np.float32))
    # blob 0 docs carry the b0_ prefix; the point must land with them
    assert any(m.startswith("b0_") for m in tree.leaves[cid].members)
    assert {c: tuple(n.members) for c, n in tree.leaves.items()} == before


def test_prefix_overlap_pair_fixtures():
    assert prefix_overlap_pair((1, 2, 0), (1, 2, 0)) == 1.0
    assert prefix_overlap_pair((1, 2, 0), (1, 3, 0)) == pytest.approx(1 / 3)
    assert prefix_overlap_pair((1, 2, 0), (2, 2, 0)) == 0.0


def test_mean_prefix_overlap_fixtures():
    cids = {"a": (1, 2, 0), "b": (1, 3, 0), "c": (1, 2, 0)}
    assert mean_prefix_overlap({"q": ["a"]}, cids) == 1.0
    assert mean_prefix_overlap({"q": ["a", "b"]}, cids) == pytest.approx(2 / 3)
    assert mean_prefix_overlap({"q": ["a", "c"]}, cids) == 1.0
    with pytest.raises(MissingCid):
        mean_prefix_overlap({"q": ["a", "zzz"]}, cids)


def test_tree_round_trip_preserves_structure_and_bytes(tmp_path):
    emb, tree = blob_tree()
    jp, bp = str(tmp_path / "tree.json"), str(tmp_path / "centroids.bin")
    save_tree(tree, jp, bp)
    loaded = load_tree(jp, bp, tree.documents)
    assert loaded.cid_by_doc == tree.cid_by_doc
    assert loaded.k == tree.k and loaded.c == tree.c and loaded.dim == tree.dim
    for cid, node in tree.leaves.items():
        other = loaded.leaves[cid]
        assert node.members == other.members
        assert node.centroid.tobytes() == other.centroid.tobytes()
    # a second save emits identical bytes
    jp2, bp2 = str(tmp_path / "tree2.json"), str(tmp_path / "centroids2.bin")
    save_tree(loaded, jp2, bp2)
    assert open(jp, "rb").read() == open(jp2, "rb").read()
    assert open(bp, "rb").read() == open(bp2, "rb").read()


def test_load_tree_rejects_truncated_centroids(tmp_path):
    emb, tree = blob_tree()
    jp, bp = str(tmp_path / "tree.json"), str(tmp_path / "centroids.bin")
    save_tree(tree, jp, bp)
    blob = open(bp, "rb").read()
    open(bp, "wb").write(blob[:-4])
    with pytest.raises(ParseError):
        load_tree(jp, bp, tree.documents)


@pytest.mark.parametrize("rows,dim", [(1, 8), (5, 16), (30, 256), (430, 256), (64, 33)])
def test_row_dots_equals_one_dot_product_per_row_bit_for_bit(rows, dim):
    rng = np.random.default_rng(rows * 1000 + dim)
    matrix = rng.standard_normal((rows, dim)).astype(np.float32)
    vec = rng.standard_normal(dim).astype(np.float32)
    got = row_dots(matrix, vec)
    vec64 = vec.astype(np.float64)
    expected = [float(vec64 @ row.astype(np.float64)) for row in matrix]
    assert got.dtype == np.float64
    assert got.tolist() == expected


def test_assign_new_document_breaks_ties_toward_the_smaller_label():
    tree = binary_depth2_tree()
    point = np.zeros(8, dtype=np.float32)
    point[4] = point[5] = 1.0  # equal inner product with both top-level centroids
    assert assign_new_document(tree, point)[0] == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_row_descent_equals_the_node_walk_for_built_added_and_tied_points(seed):
    emb, tree = blob_tree(counts=(30, 30, 30, 5), seed=seed, expected=20, branching=3)
    assert len({len(cid) for cid in tree.leaves}) > 1  # leaves at mixed depths
    built = list(emb.values())
    fresh = np.random.default_rng(seed).standard_normal((40, 16)).astype(np.float32)
    fresh /= np.linalg.norm(fresh, axis=1, keepdims=True)
    tied = np.zeros(16, dtype=np.float32)  # every child's logit is 0 at every level
    got = [assign_new_document(tree, point) for point in built + list(fresh) + [tied]]
    assert got == [reference_assign_new_document(tree, point)
                   for point in built + list(fresh) + [tied]]
    assert set(got[-1][:-1]) == {1}
    ids = [f"new{i}" for i in range(len(fresh))]  # added, they land where the walk sends them
    tree.documents.append(ids, fresh)
    place_documents(tree, ids)
    assert [tree.cid_by_doc[doc_id] for doc_id in ids] == got[len(built) : -1]
    hand_built = binary_depth2_tree()
    for axes in [(4, 5), (4, 0, 1), (5, 2, 3), (6, 7)]:  # ties at the top, below it, or both
        point = np.zeros(8, dtype=np.float32)
        point[list(axes)] = 1.0
        assert (assign_new_document(hand_built, point)
                == reference_assign_new_document(hand_built, point))


@pytest.mark.parametrize("dim", [0, "256", True])
def test_load_tree_rejects_a_dim_that_is_not_a_positive_int(tmp_path, dim):
    emb, tree = blob_tree()
    jp, bp = str(tmp_path / "tree.json"), str(tmp_path / "centroids.bin")
    save_tree(tree, jp, bp)
    manifest = json.loads(open(jp).read())
    manifest["dim"] = dim
    open(jp, "w").write(json.dumps(manifest))
    with pytest.raises(ParseError, match="tree.json"):
        load_tree(jp, bp, tree.documents)


def test_load_tree_rejects_children_not_labelled_one_to_n(tmp_path):
    emb, tree = blob_tree()
    jp, bp = str(tmp_path / "tree.json"), str(tmp_path / "centroids.bin")
    save_tree(tree, jp, bp)
    manifest = json.loads(open(jp).read())
    manifest["root"]["children"][0]["label"] = 7
    open(jp, "w").write(json.dumps(manifest))
    with pytest.raises(ParseError):
        load_tree(jp, bp, tree.documents)


def _drop(node, key):
    del node[key]


def _first_leaf(manifest):
    node = manifest["root"]
    while node["children"]:
        node = node["children"][0]
    return node


def _list_a_member_twice(manifest):
    node = manifest["root"]
    while node["children"]:
        node = node["children"][-1]
    node["members"].append(_first_leaf(manifest)["members"][0])


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda m: m.update(k=None), id="k-null"),
        pytest.param(lambda m: m.update(c=None), id="c-null"),
        pytest.param(lambda m: m.update(seed=None), id="seed-null"),
        pytest.param(lambda m: _drop(m["root"], "label"), id="root-without-label"),
        pytest.param(lambda m: m["root"].update(children=None), id="children-null"),
        pytest.param(lambda m: _drop(m["root"]["children"][0], "label"), id="child-without-label"),
        pytest.param(lambda m: m["root"]["children"].__setitem__(0, 5), id="child-not-an-object"),
        pytest.param(lambda m: _first_leaf(m).update(members=None), id="members-null"),
        pytest.param(_list_a_member_twice, id="member-in-two-leaves"),
    ],
)
def test_load_tree_rejects_malformed_node_fields_naming_tree_json(tmp_path, corrupt):
    emb, tree = blob_tree()
    jp, bp = str(tmp_path / "tree.json"), str(tmp_path / "centroids.bin")
    save_tree(tree, jp, bp)
    manifest = json.loads(open(jp).read())
    corrupt(manifest)
    open(jp, "w").write(json.dumps(manifest))
    with pytest.raises(ParseError, match="tree.json"):
        load_tree(jp, bp, tree.documents)


def test_depth_first_layout_puts_the_root_at_row_0_and_children_in_one_block(tmp_path):
    emb, tree = blob_tree(counts=(30, 30, 30, 5), expected=20, branching=3)
    assert len({len(cid) for cid in tree.leaves}) > 1  # leaves at mixed depths
    assert tree.centroid_rows.dtype == np.float32
    n_nodes = len(tree.centroid_rows)
    # row -> node and digit path, read off first_child from the root down
    nodes, paths = {0: tree.root}, {0: ()}
    for row in range(n_nodes):
        node = nodes[row]  # a child's row is always after its parent's
        assert np.shares_memory(node.centroid, tree.centroid_rows[row])
        assert node.centroid.tobytes() == tree.centroid_rows[row].tobytes()
        assert tree.child_count[row] == len(node.children)
        assert tree.leaf_cid[row] == (None if node.children else paths[row] + (TERMINAL,))
        for i, child in enumerate(node.children):
            assert child.label == i + 1
            nodes[tree.first_child[row] + i] = child
            paths[tree.first_child[row] + i] = paths[row] + (i + 1,)
    assert sorted(paths) == list(range(n_nodes))
    assert len({id(node) for node in nodes.values()}) == n_nodes
    in_preorder = np.argsort(tree.preorder)
    assert [paths[row] for row in in_preorder] == sorted(paths.values())
    next_free = 1  # the walk gives each node's children the next free rows
    for row in in_preorder:
        if tree.child_count[row]:
            assert tree.first_child[row] == next_free
            next_free += tree.child_count[row]
    jp, bp = str(tmp_path / "tree.json"), str(tmp_path / "centroids.bin")
    save_tree(tree, jp, bp)
    with open(bp, "rb") as fh:
        assert fh.read() == tree.centroid_rows[in_preorder].astype("<f4").tobytes()


def test_leaf_index_runs_in_preorder_for_built_and_loaded_trees(tmp_path):
    emb, tree = blob_tree(counts=(30, 30, 30, 5), expected=20, branching=3)
    assert len({len(cid) for cid in tree.leaves}) > 1  # breadth-first order would differ
    jp, bp = str(tmp_path / "tree.json"), str(tmp_path / "centroids.bin")
    save_tree(tree, jp, bp)
    for t in (tree, load_tree(jp, bp, tree.documents)):
        assert list(t.leaves) == sorted(t.leaves)
        assert list(t.cid_by_doc) == [d for leaf in t.leaves.values() for d in leaf.members]
        assert t.build_members == {cid: tuple(leaf.members) for cid, leaf in t.leaves.items()}


def test_load_tree_frees_the_centroid_blob_without_a_gc_pass(tmp_path, monkeypatch):
    emb, tree = blob_tree()
    jp, bp = str(tmp_path / "tree.json"), str(tmp_path / "centroids.bin")
    save_tree(tree, jp, bp)
    blobs = []
    read_array = cluster_tree.read_array

    def recording_read_array(*args):
        array = read_array(*args)
        blobs.append(weakref.ref(array))
        return array

    monkeypatch.setattr(cluster_tree, "read_array", recording_read_array)
    gc.disable()
    try:
        loaded = load_tree(jp, bp, tree.documents)
        freed = [blob() is None for blob in blobs]
    finally:
        gc.enable()
    assert freed == [True]
    assert loaded.leaf_count == tree.leaf_count


def layout(tree):
    """The layout rows and the leaf index of `tree`, in a form `==` compares whole."""
    return (tree.centroid_rows.tobytes(), tree.first_child.tolist(), tree.child_count.tolist(),
            tree.preorder.tolist(), tree.leaf_cid,
            [(cid, leaf.members, leaf.rows.tolist()) for cid, leaf in tree.leaves.items()],
            list(tree.cid_by_doc.items()), tree.build_members)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_built_loaded_and_rebuilt_from_tree_json_trees_lay_out_alike(tmp_path, seed):
    emb, tree = blob_tree(counts=(30, 30, 30, 5), seed=seed, expected=20, branching=3)
    assert max(len(cid) for cid in tree.leaves) > 3  # internal nodes below the root's children
    manifest, centroids = node_form(tree, tmp_path)
    loaded = load_tree(str(tmp_path / "tree.json"), str(tmp_path / "centroids.bin"),
                       tree.documents)
    rebuilt = ClusterTree(manifest, centroids, k=tree.k, c=tree.c, seed=tree.seed,
                          documents=tree.documents)
    assert layout(loaded) == layout(tree)
    assert layout(rebuilt) == layout(tree)
    rebuilt.documents.append(["new"], [centroids[-1]])
    place_documents(rebuilt, ["new"])  # the constructor kept no list of its input
    assert manifest == json.loads((tmp_path / "tree.json").read_text())["root"]


@pytest.mark.parametrize("damage, message", [
    pytest.param(lambda root: root["children"][0]["members"].append("d11a"),
                 "a child of node () lists members, but only a leaf may",
                 id="internal-node-members"),
    pytest.param(lambda root: root.update(label=1), "the root has label 1, expected null",
                 id="root-label"),
    pytest.param(lambda root: root["children"][1].update(label=0),
                 "a child of node () has label 0, expected a positive integer", id="label-0"),
    pytest.param(lambda root: root["children"][1].update(label=3),
                 "children of () must be labelled 1..n, got [1, 3]", id="labels-1-3"),
    pytest.param(lambda root: root["children"][0]["children"].__setitem__(1, 5),
                 "a child of node (1,) is not an object", id="child-not-an-object"),
    pytest.param(lambda root: root["children"][1]["children"][1]["members"].append("d11a"),
                 "document 'd11a' is in leaves (1, 1, 0) and (2, 2, 0)",
                 id="member-in-two-leaves"),
    pytest.param(lambda root: root["children"][0]["children"][1]["members"].append("ghost"),
                 "leaf (1, 2, 0) lists 'ghost', which has no document row",
                 id="member-without-a-row"),
])
def test_a_hand_built_tree_gets_tree_json_rules_in_the_text_load_tree_prefixes(
        tmp_path, damage, message):
    tree = binary_depth2_tree()
    manifest, centroids = node_form(tree, tmp_path)
    damage(manifest)
    with pytest.raises(ValueError) as built:
        ClusterTree(manifest, centroids, k=2, c=2, seed=0, documents=tree.documents)
    assert str(built.value) == message
    jp = tmp_path / "tree.json"
    saved = json.loads(jp.read_text())
    saved["root"] = manifest
    jp.write_text(json.dumps(saved))
    with pytest.raises(ParseError) as loaded:
        load_tree(str(jp), str(tmp_path / "centroids.bin"), tree.documents)
    assert str(loaded.value) == f"{jp}: {message}"


@pytest.mark.parametrize("side", ["fewer", "more"])
def test_a_centroid_matrix_without_one_row_per_node_is_rejected(tmp_path, side):
    tree = binary_depth2_tree()
    manifest, centroids = node_form(tree, tmp_path)
    changed = centroids[:-1] if side == "fewer" else np.vstack([centroids, centroids[-1:]])
    with pytest.raises(DimMismatch) as built:
        ClusterTree(manifest, changed, k=2, c=2, seed=0, documents=tree.documents)
    assert str(built.value) == f"{side} centroids than the manifest"
    bp = tmp_path / "centroids.bin"
    bp.write_bytes(changed.astype("<f4").tobytes())
    with pytest.raises(ParseError) as loaded:
        load_tree(str(tmp_path / "tree.json"), str(bp), tree.documents)
    assert str(loaded.value) == f"{bp}: blob has {side} centroids than the manifest"


@pytest.mark.parametrize("width", [5, 9])
def test_a_centroid_matrix_of_another_width_than_dim_is_rejected_at_construction(tmp_path, width):
    tree = binary_depth2_tree()
    manifest, centroids = node_form(tree, tmp_path)
    changed = np.zeros((len(centroids), width), dtype=np.float32)  # a row per node
    with pytest.raises(DimMismatch) as built:
        ClusterTree(manifest, changed, k=2, c=2, seed=0, documents=tree.documents)
    assert str(built.value) == f"centroids of shape (7, {width}), not dim 8 wide"


@pytest.mark.parametrize("width", [5, 16])
def test_a_document_matrix_of_another_width_than_dim_is_rejected(tmp_path, width):
    tree = binary_depth2_tree()
    manifest, centroids = node_form(tree, tmp_path)
    documents = DocumentMatrix(tree.documents.ids,
                               np.eye(len(tree.documents), width, dtype=np.float32))
    with pytest.raises(DimMismatch) as built:  # a tree is as wide as its documents
        ClusterTree(manifest, centroids, k=2, c=2, seed=0, documents=documents)
    assert str(built.value) == f"centroids of shape (7, 8), not dim {width} wide"
    jp = tmp_path / "tree.json"
    with pytest.raises(ParseError) as loaded:
        load_tree(str(jp), str(tmp_path / "centroids.bin"), documents)
    assert str(loaded.value) == f"{jp}: dim 8 disagrees with the {width}-wide document matrix"


def placement_state(tree):
    """Every leaf's members and rows, and cid_by_doc in insertion order."""
    leaves = {cid: (list(leaf.members), leaf.rows.tolist()) for cid, leaf in tree.leaves.items()}
    return leaves, list(tree.cid_by_doc.items())


def test_the_views_of_a_hand_built_tree_follow_tree_json_and_placement_order():
    """Members listed out of row order, an empty leaf, and documents placed out
    of row order, against the leaf index of node objects."""
    def views(tree):
        return ([(cid, leaf.label, leaf.members, leaf.rows.tolist(), leaf.centroid.tolist())
                 for cid, leaf in tree.leaves.items()],
                list(tree.cid_by_doc.items()), list(tree.build_members.items()))

    manifest = node(None, [node(1, [node(1, members=["d", "a"]), node(2, members=["c"])]),
                           node(2, members=["e", "b"]), node(3)])
    centroids = np.eye(6, 8, k=1, dtype=np.float32)
    documents = DocumentMatrix(list("abcde"), np.eye(5, 8, dtype=np.float32))
    tree, fresh = (ClusterTree(json.loads(json.dumps(manifest)), centroids, k=3, c=2, seed=0,
                               documents=documents) for _ in range(2))
    reference = ReferenceLeafIndex(manifest, centroids, documents)
    assert views(tree) == views(reference)  # cached until each placement below
    documents.append(list("fgh"), np.eye(3, 8, k=5, dtype=np.float32))
    for ids, cids in ((["g", "f"], [(2, 0), (1, 1, 0)]), (["h"], [(3, 0)])):
        for placed in (tree, fresh):
            place_documents(placed, ids, cids)
        reference.place(ids, cids)
        assert views(tree) == views(reference)
    assert views(fresh) == views(reference)  # built after the placements
    assert tree.leaf_of_row.tolist() == [0, 2, 1, 0, 2, 0, 2, 3]
    assert tree.member_rows.tolist() == [3, 0, 5, 2, 4, 1, 6, 7]


def test_one_call_places_into_an_empty_leaf_and_the_leaf_before_it_apart(tmp_path):
    """An empty leaf ends where the leaf before it does; documents bound for
    the two in one call, the empty leaf's first, still land in their own
    leaves, whether placed directly or again by load_placements."""
    def views(tree):
        return ([(cid, leaf.members, leaf.rows.tolist()) for cid, leaf in tree.leaves.items()],
                list(tree.cid_by_doc.items()))

    manifest = node(None, [node(1, members=["a"]), node(2), node(3, members=["b"])])
    centroids = np.eye(4, 8, k=1, dtype=np.float32)
    documents = DocumentMatrix(["a", "b"], np.eye(2, 8, dtype=np.float32))
    tree = ClusterTree(json.loads(json.dumps(manifest)), centroids, k=3, c=2, seed=0,
                       documents=documents)
    reference = ReferenceLeafIndex(manifest, centroids, documents)
    documents.append(["x", "y", "z"], np.eye(3, 8, k=4, dtype=np.float32))
    ids, cids = ["x", "y", "z"], [(2, 0), (1, 0), (2, 0)]
    place_documents(tree, ids, cids)
    reference.place(ids, cids)
    assert tree.member_rows.tolist() == [0, 3, 2, 4, 1]
    assert views(tree) == views(reference)
    assert tree.leaf_of_row.tolist() == [0, 2, 1, 0, 1]
    save_tree(tree, str(tmp_path / "tree.json"), str(tmp_path / "centroids.bin"))
    save_placements(tree, str(tmp_path / "placements.bin"))
    loaded = load_tree(str(tmp_path / "tree.json"), str(tmp_path / "centroids.bin"),
                       DocumentMatrix(documents.ids, documents.matrix))
    load_placements(loaded, str(tmp_path / "placements.bin"),  # rows 2, 3, 4 to leaves 1, 0, 1
                    str(tmp_path / "tree.json"))
    assert loaded.member_rows.tolist() == tree.member_rows.tolist()
    assert loaded.leaf_of_row.tolist() == tree.leaf_of_row.tolist()
    assert views(loaded) == views(reference)


@pytest.mark.parametrize("ids, cids, error", [
    pytest.param(["d12a"], [(2, 2, 0)], DuplicateId, id="already-in-a-leaf"),
    pytest.param(["new", "d12a"], None, DuplicateId, id="already-in-a-leaf-by-descent"),
    pytest.param(["new", "new"], [(1, 1, 0), (2, 2, 0)], DuplicateId, id="repeated"),
    pytest.param(["new", "new"], None, DuplicateId, id="repeated-by-descent"),
    pytest.param(["new", "other"], [(1, 1, 0), (3, 0)], UnknownCid, id="unknown-cid"),
    pytest.param(["new", "other"], [(1, 1, 0), (2,)], UnknownCid, id="internal-node"),
    pytest.param(["new", "ghost"], [(1, 1, 0), (1, 1, 0)], UnknownDoc, id="rowless"),
    pytest.param(["new", "ghost"], None, UnknownDoc, id="rowless-by-descent"),
    pytest.param(["new", "other"], [(1, 1, 0)], ValueError, id="one-cid-short"),
])
def test_place_documents_checks_every_pair_before_it_changes_the_tree(ids, cids, error):
    tree = binary_depth2_tree()
    tree.documents.append(["new", "other"], np.eye(2, 8, k=5, dtype=np.float32))
    before = placement_state(tree)
    with pytest.raises(error):
        place_documents(tree, ids, cids)
    assert placement_state(tree) == before
    place_documents(tree, ["new", "other"], [(2, 2, 0), (1, 1, 0)])  # the tree is still usable
    assert tree.leaves[(2, 2, 0)].rows.tolist() == [4, 5]
    assert tree.leaves[(1, 1, 0)].members == ["d11a", "d11b", "other"]


@pytest.mark.parametrize("cid", [[2, 2, 0], np.array([2, 2, 0], dtype=np.int32), (2, 2, 0)],
                         ids=["list", "array", "tuple"])
def test_place_documents_takes_any_digit_sequence_as_a_cid(cid):
    """As rank_within_cluster does: a sequence is looked up as its tuple."""
    tree = binary_depth2_tree()
    tree.documents.append(["x", "y"], np.eye(2, 8, k=5, dtype=np.float32))
    place_documents(tree, ["x"], [cid])
    assert tree.cids_of(["x"]) == {"x": (2, 2, 0)}
    before = placement_state(tree)
    with pytest.raises(UnknownCid):
        place_documents(tree, ["y"], [[2, 3, 0]])
    assert placement_state(tree) == before


def test_cids_of_is_cid_by_doc_for_the_ids_asked_and_leaves_out_the_rest():
    tree = binary_depth2_tree()
    tree.documents.append(["placed", "unplaced"], np.eye(2, 8, k=5, dtype=np.float32))
    place_documents(tree, ["placed"], [(1, 2, 0)])
    asked = ["placed", "ghost", "d22a", "unplaced", "d11a", "d22a"]
    assert tree.cids_of(asked) == {doc_id: tree.cid_by_doc[doc_id]
                                   for doc_id in asked if doc_id in tree.cid_by_doc}
    assert list(tree.cids_of(asked)) == ["placed", "d22a", "d11a"]
    assert tree.cids_of(iter(tree.documents.ids)) == tree.cid_by_doc


def node_walk(node):
    """(label, child count, centroid bytes) of `node` and every node below it, in preorder."""
    walk = [(node.label, len(node.children), node.centroid.tobytes())]
    for child in node.children:
        walk += node_walk(child)
    return walk


def test_root_is_built_once_around_the_trees_own_leaves():
    """The views are built once until a placement: one read before it stays as
    it was, and one read after it shows the placed document."""
    emb, tree = blob_tree(counts=(30, 30, 30, 5), expected=20, branching=3)
    root = tree.root
    assert tree.root is root
    found, stack = [], [root]
    while stack:
        node = stack.pop()
        if node.children:
            stack.extend(reversed(node.children))
        else:
            found.append(node)
    assert len(found) == tree.leaf_count
    assert all(a is b for a, b in zip(found, tree.leaves.values()))
    point = next(iter(tree.leaves.values())).centroid.copy()
    leaves, cid_by_doc, walk = tree.leaves, tree.cid_by_doc, node_walk(root)
    tree.documents.append(["new"], [point])
    place_documents(tree, ["new"])
    assert tree.root is not root and tree.root is tree.root and node_walk(tree.root) == walk
    cid = tree.cid_by_doc["new"]
    assert "new" not in cid_by_doc and tree.cid_by_doc == {**cid_by_doc, "new": cid}
    held, fresh = root, tree.root
    for digit in cid[:-1]:
        held, fresh = held.children[digit - 1], fresh.children[digit - 1]
    assert held is leaves[cid] and fresh is tree.leaves[cid]
    assert fresh.members == held.members + ["new"] and "new" not in held.members
    assert fresh.rows.tolist() == held.rows.tolist() + [tree.documents.row["new"]]
