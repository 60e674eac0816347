import itertools
import math

import numpy as np
import pytest

from coalattn.games import Extensions, TabularGame, _prefix_masks, tabulate
from coalattn.meanfield import check_spin_system
from coalattn.oracles import EnumerationLimitError, _shapley_weights, _split

# three-token walkthrough table, indexed by coalition bitmask (bit i = token i)
WORKED_TABLE = (0.0, 0.2, 0.5, 1.2, 0.4, 0.8, 1.0, 1.8)


@pytest.fixture
def worked_game() -> TabularGame:
    return TabularGame(WORKED_TABLE)


def random_table_game(rng: np.random.Generator, n: int, scale: float = 1.0) -> TabularGame:
    """Random tabular game with the empty coalition pinned to zero."""
    values = rng.uniform(-scale, scale, size=1 << n)
    values[0] = 0.0
    return TabularGame(values)


def additive_table_game(weights) -> TabularGame:
    """Game where v(C) is the sum of per-token weights; Shapley and Banzhaf
    values of an additive game equal the weights exactly."""
    weights = np.asarray(weights, dtype=np.float64)
    n = weights.size
    values = np.zeros(1 << n)
    for mask in range(1 << n):
        values[mask] = sum(weights[i] for i in range(n) if (mask >> i) & 1)
    return TabularGame(values)


def subsets(extensions: Extensions) -> np.ndarray:
    """The ``2**f`` subsets of each row's tokens as uint64 masks, shape
    ``(2**f,) + tokens.shape[:-1]``, in counting order: subset j holds the
    row's token i when bit i of j is set (none, first, second, both)."""
    tokens = extensions.tokens
    bits = np.left_shift(np.uint64(1), tokens.astype(np.uint64))
    added = np.zeros((1 << tokens.shape[-1],) + tokens.shape[:-1], dtype=np.uint64)
    for i in range(tokens.shape[-1]):
        # the subsets holding token i follow, in counting order, those below it
        np.bitwise_or(added[: 1 << i], bits[..., i], out=added[1 << i : 2 << i])
    return added


def row_contexts(extensions: Extensions) -> np.ndarray:
    """Each row's K contexts, shape ``tokens.shape[:-1] + (K,)``: the
    words without the row's tokens, or the prefixes before its token."""
    if extensions.orders is None:
        return extensions.contexts & ~extensions.mask[..., None]
    return _prefix_masks(extensions.orders)[np.arange(extensions.orders.shape[0]), extensions.ranks]


# the sign of a difference over an entry holding an even or an odd number of
# the row's tokens: toggling a held token removes it
_TOGGLE_SIGNS = np.array([1.0, -1.0])


def context_and_difference(extensions: Extensions, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's context value and inclusion-exclusion difference on
    every pool entry, both of shape ``tokens.shape[:-1] + (K,)``, from
    the *values* of the coalitions ``np.asarray(extensions)``, shape
    ``extensions.shape``: the inverse of the toggle order the
    ``Extensions`` docstring describes, written on its own as the
    reference the games' pooled tables are checked against."""
    # the alternating sum over the subsets: v1 - v0, or ((v3 - v1) - v2) + v0 in place
    difference = values[1] - values[0] if len(values) == 2 else values[3] - values[1]
    if len(values) == 4:
        difference -= values[2]
        difference += values[0]
    if extensions.orders is not None:  # a prefix never holds its own token
        return values[0].copy(), difference
    context, odd = values, False
    for i in range(extensions.tokens.shape[-1]):
        # bit t of every word, for each row's token t
        token = extensions.tokens[..., i, None].astype(np.uint64)
        held = ((extensions.contexts >> token) & np.uint64(1)).astype(bool)
        # keep the subsets that agree with each entry on token i
        context = np.where(held, context[1::2], context[::2])
        odd = odd ^ held
    difference *= _TOGGLE_SIGNS.take(odd.view(np.uint8))
    return context[0], difference


def reference_stream(seed: int, kind: int) -> np.random.Generator:
    """A fresh generator on one family's stream, keyed from the documented
    formula: the key is the two words ``SeedSequence(entropy=seed,
    spawn_key=(kind,))`` generates.  The key goes to ``Philox`` as a uint64
    array: ``Philox`` turns a list of Python ints into float64, and a word
    of 64 bits loses its low bits on the way."""
    h0, h1 = np.random.SeedSequence(entropy=int(seed), spawn_key=(kind,)).generate_state(2, np.uint64)
    key = np.array([int(h0), int(h1)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def reference_pool(seed: int, kind: int, n: int, count: int) -> np.ndarray:
    """One family's pool, drawn from a fresh generator on the family's
    stream (``reference_stream(seed, kind)``): *count* permutations of the
    n tokens for kind 1 (Shapley), else *count* uniform 64-bit words masked
    to the n token bits."""
    rng = reference_stream(seed, kind)
    if kind == 1:
        return rng.permuted(np.tile(np.arange(n), (count, 1)), axis=1)
    return rng.integers(0, 2**64, size=count, dtype=np.uint64) & np.uint64((1 << n) - 1)


def reference_contexts(pool: np.ndarray, kind: int, n: int, slot: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(context masks, proposal probabilities) of one slot in its family's
    pool over n tokens, derived on their own: token i's context in
    permutation k is the sum of the bits of the tokens before i, with
    probability ``s!(n-1-s)!/(n-1)!`` for its size s; a Bernoulli slot's
    contexts are the pool words without the slot's bits, each with
    probability ``2**-(n - |slot|)``."""
    if kind == 1:
        places = np.argmax(pool == slot[0], axis=1)
        before = np.arange(n)[None, :] < places[:, None]
        masks = np.where(before, np.left_shift(np.uint64(1), pool.astype(np.uint64)), np.uint64(0))
        probs = [math.factorial(s) * math.factorial(n - 1 - s) / math.factorial(n - 1) for s in places]
        return masks.sum(axis=1, dtype=np.uint64), np.array(probs)
    slot_bits = np.uint64(sum(1 << t for t in slot))
    return pool & ~slot_bits, np.full(pool.size, 0.5 ** (n - len(slot)))


def reference_slot(game, cfg, kind: int, slot: tuple) -> tuple[float, float, float]:
    """(estimate, ESS, standard error) of one slot computed on its own: the
    family's pool from a fresh generator (``reference_pool``), the slot's
    contexts derived from it (``reference_contexts``), one evaluation of a
    one-row ``Extensions`` of the pool by the slot's tokens, checked to hold
    exactly each pool entry with every subset of the tokens toggled, and
    one weighting.

    *kind* is the stream identifier (1 Shapley permutations, 2 the words
    that Banzhaf values and pair interactions share) and *slot* the token
    indices, ``(i,)`` or ``(a, b)`` with ``a < b``.  A permutation's
    coalitions are the context and the context with the token.  On a
    Bernoulli word the context is the column of the tokens the word holds,
    checked against the derived contexts.  The evaluation returns the
    context values and the marginals; for a table game they are checked
    against its lookups of the coalitions: the held column, and the
    alternating sum over the columns, negated when the word holds an odd
    number of the slot's tokens.  The standard error is the delta-method
    ``sqrt(sum (w_k (m_k - est))**2)`` over the normalized weights, which
    reduces to ``std/sqrt(K)`` for uniform weights.
    """
    k, n = cfg.sample_count, game.n
    pool = reference_pool(cfg.seed, kind, n, k)
    bits = [1 << t for t in slot]
    added = [0, bits[0]]
    if len(slot) == 2:
        added += [bits[1], bits[0] | bits[1]]
    added = np.array(added, dtype=np.uint64)
    contexts, probs = reference_contexts(pool, kind, n, slot)
    tokens = np.array([slot])
    extensions = Extensions(None, tokens, pool) if kind == 1 else Extensions(pool, tokens)
    shared = contexts if kind == 1 else pool
    masks = np.asarray(extensions)[:, 0]
    np.testing.assert_array_equal(masks, added[:, None] ^ shared[None, :])
    held = np.zeros(k, dtype=np.intp)
    if kind != 1:
        for i, t in enumerate(slot):
            held |= ((pool >> np.uint64(t)) & np.uint64(1)).astype(np.intp) << i
    columns = np.arange(k)
    np.testing.assert_array_equal(masks[held, columns], contexts)
    context, difference = game.values_by_mask(extensions)
    base, marginals = context[0], difference[0]
    if isinstance(game, TabularGame):
        values = game.table[masks.astype(np.int64)]
        np.testing.assert_array_equal(base, values[held, columns])
        if len(slot) == 1:
            alternating = values[1] - values[0]
        else:
            alternating = values[3] - values[1] - values[2] + values[0]
        np.testing.assert_array_equal(marginals, np.where(np.bitwise_count(held) % 2 == 1, -alternating, alternating))
    if cfg.mode == "gibbs":
        log_raw = base / cfg.gamma - np.log(probs)
        raw = np.exp(log_raw - np.max(log_raw))
        normalized = raw / raw.sum()
    else:
        raw, normalized = np.ones(k), np.full(k, 1.0 / k)
    total = float(np.sum(raw))
    ess = min(max(total * total / float(np.dot(raw, raw)), 1.0), float(k))
    estimate = float(np.dot(normalized, marginals))
    se = float(np.sqrt(np.sum((normalized * (marginals - estimate)) ** 2)))
    return estimate, ess, se


# The exact oracles by mask filtering: every slot filters the 2**n masks for
# its contexts.  Kept as an independent reference that the oracles' per-token
# rows must match bit for bit, so each sums in the oracles' order.


def _masks_excluding(n: int, *tokens: int) -> np.ndarray:
    """All coalition masks over n tokens containing none of *tokens*."""
    masks = np.arange(1 << n, dtype=np.int64)
    keep = np.ones(masks.size, dtype=bool)
    for t in tokens:
        keep &= (masks & (1 << t)) == 0
    return masks[keep]


def _reference_tilted_average(log_weights: np.ndarray, deltas: np.ndarray) -> float:
    shifted = log_weights - np.max(log_weights)
    w = np.exp(shifted)
    w /= w.sum()
    return float(np.dot(w, deltas))


def _reference_pair_deltas(table: np.ndarray, n: int, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = (i, j) if i < j else (j, i)
    masks = _masks_excluding(n, lo, hi)
    bl, bh = 1 << lo, 1 << hi
    base = table[masks]
    return base, (table[masks | bl | bh] - table[masks | bh]) - (table[masks | bl] - base)


def reference_game_values(table: np.ndarray) -> tuple[list, list, np.ndarray]:
    """(Shapley values, Banzhaf values, interaction matrix) of a table game
    by mask filtering, one token or pair at a time."""
    n = table.size.bit_length() - 1
    size_weights = np.array(
        [math.factorial(s) * math.factorial(n - 1 - s) / math.factorial(n) for s in range(n)]
    )
    shapley, banzhaf = [], []
    for i in range(n):
        masks = _masks_excluding(n, i)
        deltas = table[masks | (1 << i)] - table[masks]
        shapley.append(float(np.dot(size_weights[np.bitwise_count(masks)], deltas)))
        banzhaf.append(float(np.mean(deltas)))
    interactions = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            interactions[i, j] = interactions[j, i] = float(np.mean(_reference_pair_deltas(table, n, i, j)[1]))
    return shapley, banzhaf, interactions


def reference_tilted_values(table: np.ndarray, gamma: float) -> tuple[list, list, np.ndarray]:
    """The Gibbs-tilted counterparts of ``reference_game_values``: (prefix
    Shapley limits, Banzhaf limits, interaction matrix).  The prefix limit
    is the tilted Banzhaf value: the prefix sampler's density and the
    weight's denominator differ by a constant factor, which cancels."""
    n = table.size.bit_length() - 1
    banzhaf = []
    for i in range(n):
        masks = _masks_excluding(n, i)
        base = table[masks]
        banzhaf.append(_reference_tilted_average(base / gamma, table[masks | (1 << i)] - base))
    interactions = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            base, deltas = _reference_pair_deltas(table, n, i, j)
            interactions[i, j] = interactions[j, i] = _reference_tilted_average(base / gamma, deltas)
    return list(banzhaf), banzhaf, interactions


# The exact oracles as two walks, one per oracle, each reducing one pair row
# at a time: the engine's form before one walk served both, kept as the
# reference its chunked rows must match bit for bit.


def _walk_token_row(table: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    base, with_i = _split(table, i)
    return base, (with_i - base).reshape(-1)


def _walk_pair_row(deltas: np.ndarray, j: int) -> np.ndarray:
    without, with_j = _split(deltas, j - 1)
    return (with_j - without).reshape(-1)


def _walk_tilted_average(log_weights: np.ndarray, deltas: np.ndarray) -> float:
    w = log_weights - np.max(log_weights)
    w = np.exp(w, out=w).reshape(-1)
    w /= w.sum()
    return float(np.dot(w, deltas))


def per_pair_game_values(table: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Shapley values, Banzhaf values, interaction matrix) of a table game,
    one token's difference row and one pair's row at a time."""
    n = table.size.bit_length() - 1
    weights = _shapley_weights(n)
    shapley, banzhaf, interactions = np.empty(n), np.empty(n), np.zeros((n, n))
    for i in range(n):
        deltas = _walk_token_row(table, i)[1]
        shapley[i] = np.dot(weights, deltas)
        banzhaf[i] = np.mean(deltas)
        for j in range(i + 1, n):
            interactions[i, j] = interactions[j, i] = np.mean(_walk_pair_row(deltas, j))
    return shapley, banzhaf, interactions


def per_pair_tilted_values(table: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Gibbs-tilted counterparts of ``per_pair_game_values`` at *gamma*:
    (prefix Shapley limits, Banzhaf limits, interaction matrix), the first
    two the same array."""
    n = table.size.bit_length() - 1
    banzhaf, interactions = np.empty(n), np.zeros((n, n))
    with np.errstate(over="ignore"):
        for i in range(n):
            base, deltas = _walk_token_row(table, i)
            log_weights = (base / gamma).reshape(-1)
            banzhaf[i] = _walk_tilted_average(log_weights, deltas)
            for j in range(i + 1, n):
                pair_weights = _split(log_weights, j - 1)[0]
                interactions[i, j] = interactions[j, i] = _walk_tilted_average(pair_weights, _walk_pair_row(deltas, j))
    return banzhaf, banzhaf, interactions


def reference_spin_marginals(fields, couplings, gamma: float, logsumexp) -> tuple[list, float]:
    """(alphas, log partition) of a spin system by full enumeration, with one
    *logsumexp* call per spin over the configurations whose bit is set."""
    fields = np.asarray(fields, dtype=np.float64)
    couplings = np.asarray(couplings, dtype=np.float64)
    n = fields.size
    configs = np.arange(1 << n, dtype=np.uint64)
    bits = (configs[:, None] >> np.arange(n, dtype=np.uint64)[None, :]) & np.uint64(1)
    spins = 2.0 * bits.astype(np.float64) - 1.0
    energies = -(spins @ fields) - 0.5 * np.vecdot(spins @ couplings, spins)
    log_weights = -energies / gamma
    log_z = float(logsumexp(log_weights))
    alphas = [math.exp(float(logsumexp(log_weights[bits[:, i] == 1])) - log_z) for i in range(n)]
    return alphas, log_z


# Reference oracles that walk what the engine's closed forms sum: every
# token ordering, and the energy of one spin configuration.

PERMUTATION_ENUM_LIMIT = 10


def exact_shapley_by_permutations(game, i: int) -> float:
    """Shapley value by walking every permutation; cross-check oracle only.

    Pure-Python ``n!`` enumeration, so the cap is tighter than the closed
    form's.
    """
    if not 0 <= i < game.n:
        raise ValueError(f"token index {i} out of range for n={game.n}")
    if game.n > PERMUTATION_ENUM_LIMIT:
        raise EnumerationLimitError(
            f"permutation-walk Shapley value: exact enumeration supports at most "
            f"{PERMUTATION_ENUM_LIMIT} tokens, got {game.n}"
        )
    n = game.n
    table = tabulate(game)
    bit = 1 << i
    total = 0.0
    for perm in itertools.permutations(range(n)):
        mask = 0
        for t in perm:
            if t == i:
                total += table[mask | bit] - table[mask]
                break
            mask |= 1 << t
    return total / math.factorial(n)


def hamiltonian(fields, couplings, spins) -> float:
    """Energy of one spin configuration.

    ``H(S) = -sum_i J_i s_i - sum_{i<j} J_ij s_i s_j`` with every spin
    exactly +1 or -1.
    """
    fields, couplings = check_spin_system(fields, couplings)
    s = np.asarray(spins, dtype=np.float64)
    if s.shape != fields.shape:
        raise ValueError(f"spins: expected length {fields.size}, got shape {s.shape}")
    if not np.all(np.abs(s) == 1.0):
        raise ValueError("spins: every entry must be exactly +1 or -1")
    # couplings is symmetric with zero diagonal, so s@C@s double-counts pairs
    return float(-(fields @ s) - 0.5 * (s @ couplings @ s))
