"""Reference index-set enumerators: integer-box walks, one point at a time.

These are the enumerators the array ones in polybloch.lattice and
polybloch.block replaced.  They walk the box with itertools.product, embed
each point on its own (n @ dual_basis), test it with a scalar comparison
and sort keyed tuples, so they return plain coordinate tuples in the order
the array versions must reproduce.  membership_profile and classify_level
are the resonance-set tests over the direction pool as a list of
LatticeVectors, the form the index-set pool of polybloch.geometry replaced.
former_index_set is the array enumeration build_index_set ran for every
block before a block became the translate of its shape's one offset set.
"""

import itertools

import numpy as np

from polybloch.numerics import integer_rank

TWO_PI = 2 * np.pi
BALL_REL_TOL = 1e-9


def embed(lattice, n):
    return np.asarray(n, dtype=float) @ lattice.dual_basis


def integral_gram(lattice):
    """The dual Gram matrix as integers, or None when it is not integral to 1e-12."""
    gram = lattice.dual_basis @ lattice.dual_basis.T
    rounded = np.round(gram)
    return rounded.astype(np.int64) if np.allclose(gram, rounded, atol=1e-12) else None


def enumerate_ball(lattice, radius, exclude_zero=True):
    """All gamma with |gamma| < radius (strict), sorted by (|gamma|^2, coords).

    Exact integer norms on integral lattices, else a 1e-9 relative
    tolerance pushing the boundary inward.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    if radius == 0:
        return []
    d = lattice.dimension
    gram = integral_gram(lattice)
    bounds = [int(np.floor(radius * np.linalg.norm(lattice.basis[i]) / TWO_PI + 1e-9)) for i in range(d)]
    r2 = radius * radius
    out = []
    for n in itertools.product(*(range(-b, b + 1) for b in bounds)):
        if exclude_zero and all(c == 0 for c in n):
            continue
        if gram is not None:
            m = np.asarray(n, dtype=np.int64)
            nsq = int(m @ gram @ m)
            if not nsq < r2:
                continue
            key = float(nsq)
        else:
            emb = embed(lattice, n)
            key = float(emb @ emb)
            if not key < r2 * (1.0 - BALL_REL_TOL):
                continue
        out.append((key, n))
    out.sort()
    return [n for _, n in out]


def enumerate_shifted_ball(lattice, center, radius):
    """All gamma with |gamma - center| <= radius (inclusive, tolerant),
    sorted by (|gamma - center|^2, coords)."""
    center = np.asarray(center, dtype=float)
    d = lattice.dimension
    c_coeff = lattice.basis @ center / TWO_PI
    bounds = []
    for i in range(d):
        half = radius * np.linalg.norm(lattice.basis[i]) / TWO_PI
        bounds.append((int(np.floor(c_coeff[i] - half - 1e-9)), int(np.ceil(c_coeff[i] + half + 1e-9))))
    cutoff = radius + BALL_REL_TOL * max(1.0, radius)
    out = []
    for n in itertools.product(*(range(lo, hi + 1) for lo, hi in bounds)):
        diff = embed(lattice, n) - center
        dist_sq = float(diff @ diff)
        if np.sqrt(dist_sq) <= cutoff:
            out.append((dist_sq, n))
    out.sort()
    return [n for _, n in out]


def span_combinations(directions, radius):
    """Integer combinations b = sum n_i gamma_i with |b| < radius (strict), as coordinate tuples."""
    mat = np.array([g.embedding for g in directions])
    sigma_min = np.linalg.svd(mat, compute_uv=False).min()
    bound = int(np.floor(radius / sigma_min + 1e-9))
    out = []
    for n in itertools.product(range(-bound, bound + 1), repeat=len(directions)):
        coords = tuple(int(sum(n[i] * directions[i].coords[j] for i in range(len(n))))
                       for j in range(mat.shape[1]))
        emb = np.asarray(n, dtype=float) @ mat
        if float(np.linalg.norm(emb)) < radius:
            out.append(coords)
    return out


def index_set(lattice, gamma0, directions, b_radius, a_radius):
    """{gamma0 + b + a} as coordinate tuples, sorted by (|b + a|^2, coords)."""
    a_list = enumerate_ball(lattice, a_radius, exclude_zero=False)
    offsets = {tuple(bb + aa for bb, aa in zip(b, a)) for b in span_combinations(directions, b_radius)
               for a in a_list}
    keyed = []
    for off in offsets:
        emb = embed(lattice, off)
        keyed.append((float(emb @ emb), tuple(g + o for g, o in zip(gamma0, off))))
    keyed.sort()
    return [h for _, h in keyed]


def former_index_set(lattice, gamma0, directions, b_radius, a_radius):
    """The rows of {gamma0 + b + a} as build_index_set once enumerated them, afresh for every block.

    b is the span ball's integer combinations from an integer box, a the
    centred ball (LatticeModel.ball_coords); np.unique dedupes the sums and
    np.lexsort orders them by (|b + a|^2, coords), then gamma0 is added.
    Returns (n, d) int64 rows.
    """
    mat = np.array([g.embedding for g in directions])
    bound = int(np.floor(b_radius / np.linalg.svd(mat, compute_uv=False).min() + 1e-9))
    n = np.array(list(itertools.product(range(-bound, bound + 1), repeat=len(directions))), dtype=np.int64)
    emb = np.vecmat(n.astype(float), mat)
    b = n[np.sqrt(np.vecdot(emb, emb)) < b_radius] @ np.array([g.coords for g in directions], dtype=np.int64)
    a = lattice.ball_coords(a_radius, exclude_zero=False)
    offsets = np.unique((b[:, None, :] + a[None, :, :]).reshape(-1, lattice.dimension), axis=0)
    emb = lattice.embed(offsets)
    keys = tuple(offsets[:, j] for j in reversed(range(offsets.shape[1]))) + (np.vecdot(emb, emb),)
    return offsets[np.lexsort(keys)] + np.asarray(gamma0, dtype=np.int64)


def membership_profile(lattice, x, cascade):
    """(pool, distances, flags) of geometry.membership_profile, the pool as enumerate_ball LatticeVectors."""
    pool = lattice.enumerate_ball(cascade.pool_radius)
    x = np.asarray(x, dtype=float)
    pool_matrix = np.array([g.embedding for g in pool]).reshape(-1, len(x))
    pool_norm_sq = np.array([float(g.embedding @ g.embedding) for g in pool])
    dists = np.abs(2.0 * (pool_matrix @ x) + pool_norm_sq)
    flags = []
    for k in range(1, cascade.d + 1):
        idx = np.nonzero(dists < cascade.v_threshold(k))[0]
        flags.append(len(idx) >= k and integer_rank([pool[i].coords for i in idx]) >= k)
    return pool, dists, flags


def classify_level(lattice, x, cascade):
    """(level, witness coords, margins, min_pool_margin) of geometry.classify from membership_profile above.

    level is None where E_d reaches x; the witnesses are the greedy
    independent tuple in coordinate-tuple order, fewer than level when the
    search runs out (classify raises PartitionBreakdown in both cases).
    """
    pool, dists, flags = membership_profile(lattice, x, cascade)
    min_pool_margin = float(np.min(dists - cascade.v_threshold(1))) if len(dists) else float("inf")
    member = [True] + flags
    level = next((k for k in range(cascade.d - 1, -1, -1) if member[k] and not member[k + 1]), None)
    if not level:
        return level, (), (), min_pool_margin
    threshold = cascade.v_threshold(level)
    chosen = []
    for i in sorted(np.nonzero(dists < threshold)[0], key=lambda i: pool[i].coords):
        if len(chosen) < level and integer_rank([pool[j].coords for j in chosen + [i]]) == len(chosen) + 1:
            chosen.append(i)
    return (level, tuple(pool[i].coords for i in chosen), tuple(float(dists[i] - threshold) for i in chosen),
            min_pool_margin)
