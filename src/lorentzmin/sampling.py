"""How a sweep draws its parameter sets: sampler configs, checked, and
the draws made from them in chunks of at most ``BLOCK_NODES`` sets.

A sampler mode draws each set by scalar rules (see ``_draw_chunks``), some
of which reject tries; a chunk replays those rules on arrays, and its sets
come out bit for bit as drawing them one at a time would give them, from
the same generator values in the same order.
"""

from __future__ import annotations

import copy
from collections.abc import Mapping

import numpy as np

from .curves import EX72_CHAIN_BOUNDS, FAMILIES, _ex72_chain_mid, _finite_number
from .errors import InvalidInputError
from .surfaces import BLOCK_NODES, _check_grid

#: Sampler modes and the config keys each one reads, besides "mode" and
#: "grid".
SAMPLER_KEYS = {"sorted_box": ("a_box", "pqr_box", "min_gap"),
                "chain": ("qr_box",),
                "box_around": ("center", "rel")}

#: The parameters a sampler mode draws, where it draws fixed ones.
SAMPLER_PARAMS = {"sorted_box": ("a", "p", "q", "r"), "chain": ("p", "q", "r")}

#: Draws a sampler may reject in a row before its config counts as one
#: that cannot be satisfied.
MAX_SAMPLER_TRIES = 10_000

#: Stream values after which a chunk of draws (``_draw_chunks``) takes no
#: further set, which bounds its buffers when a sampler rejects most tries.
CHUNK_VALUES = 16 * BLOCK_NODES

#: Largest magnitude of a number in a sampler config, so that the squares
#: of the draws stay finite.  Their products need not: a radicand or a
#: denominator that overflows is not finite, which makes the draw invalid.
SAMPLER_BOUND = 1e150


def _sampler_config(family: str, overrides) -> dict:
    """The family's default sampler updated with ``overrides``, checked
    so that drawing from it cannot fail on a type or overflow."""
    if overrides is None:
        overrides = {}
    if not isinstance(overrides, Mapping):
        raise InvalidInputError(f"sampler config must be a JSON object, got {overrides!r}")
    known = {"mode", "grid"}.union(*SAMPLER_KEYS.values())
    unknown = set(overrides) - known
    if unknown:
        raise InvalidInputError(
            f"unknown sampler config keys {sorted(unknown)}; known: {sorted(known)}")
    cfg = copy.deepcopy(FAMILIES[family]["sampler"])
    cfg.update(overrides)
    mode = cfg["mode"]
    if not isinstance(mode, str) or mode not in SAMPLER_KEYS:
        raise InvalidInputError(f"unknown sampler mode {mode!r}; known: {sorted(SAMPLER_KEYS)}")
    missing = [key for key in SAMPLER_KEYS[mode] if key not in cfg]
    if missing:
        raise InvalidInputError(f"sampler mode {mode} needs {missing}")
    drawn = SAMPLER_PARAMS.get(mode, FAMILIES[family]["params"])
    if sorted(drawn) != sorted(FAMILIES[family]["params"]):
        raise InvalidInputError(f"sampler mode {mode} draws {list(drawn)}, but {family} takes "
                                f"{list(FAMILIES[family]['params'])}")
    _check_grid(cfg["grid"])

    def numbers_ok(value, size):
        return (isinstance(value, (list, tuple)) and len(value) == size
                and all(_finite_number(v) and abs(v) <= SAMPLER_BOUND for v in value))

    for key in SAMPLER_KEYS[mode]:
        value = cfg[key]
        if key == "center":
            size = len(FAMILIES[family]["params"])
            ok, want = numbers_ok(value, size), f"{size} numbers"
        elif key.endswith("_box"):
            ok, want = numbers_ok(value, 2) and value[0] <= value[1], "[lo, hi] with lo <= hi"
        else:  # rel, min_gap
            hi = 1.0 if key == "rel" else SAMPLER_BOUND
            ok, want = numbers_ok([value], 1) and 0 <= value <= hi, f"a number in [0, {hi:g}]"
        if not ok:
            raise InvalidInputError(
                f"sampler {key} must be {want} of magnitude at most {SAMPLER_BOUND:g}, "
                f"got {value!r}")
    return cfg


def _next_accepted(ok, width):
    """For each try start i, the first accepted try at i, i + width, ...,
    or ok.size if there is none."""
    found = np.where(ok, np.arange(ok.size), ok.size)
    for r in range(width):
        found[r::width] = np.minimum.accumulate(found[r::width][::-1])[::-1]
    return found


def _orbit(step, m):
    """0, step[0], step[step[0]], ... past its (m + 1)th point or up to one
    that step maps to itself (repeated there), by repeated squaring."""
    points, jump = np.zeros(1, dtype=int), step
    while points.size <= m and jump[points[-1]] != points[-1]:
        points, jump = np.concatenate([points, jump[points]]), jump[jump]
    return points


def _draw_chunks(family: str, cfg: dict, rng: np.random.Generator, n: int):
    """A sweep's n parameter sets as (sets, params) arrays of at most
    BLOCK_NODES rows, each set drawn as its mode's scalar rules draw it:

    * sorted_box: a from a_box, then tries of three from pqr_box, sorted
      into p > r > q, until both gaps are at least min_gap;
    * chain: tries of (q, r) from qr_box until X(q, r) > 0, then p^2 from
      [X/HI, X/LO] (``EX72_CHAIN_BOUNDS``), so every set satisfies Ex7_2's
      quoted chain;
    * box_around: each centre value times a draw from [1 - rel, 1 + rel].

    A rejecting mode draws a chunk in two passes from one generator state:
    every value with the tries' bounds, which places each set's tries and
    its a or p in the stream, then one ``rng.uniform`` call with each
    value's own bounds.  A set with no accepted try in MAX_SAMPLER_TRIES
    raises, after the sets before it."""
    names = FAMILIES[family]["params"]
    if cfg["mode"] == "box_around":
        center, rel = np.array([float(c) for c in cfg["center"]]), cfg["rel"]
        for i in range(0, n, BLOCK_NODES):
            yield center * rng.uniform(1 - rel, 1 + rel, (min(BLOCK_NODES, n - i), center.size))
        return
    chain = cfg["mode"] == "chain"
    lead, width, tail = (0, 2, 1) if chain else (1, 3, 0)
    box = [float(v) for v in cfg["qr_box" if chain else "pqr_box"]]
    while n > 0:
        state, m = rng.bit_generator.state, min(BLOCK_NODES, n)
        values = np.empty(0)
        while True:  # pass one, extended until it places m sets or a failed one
            new = rng.uniform(*box, max(values.size, m * (lead + 2 * width + tail)))
            values, size = np.append(values, new), values.size + new.size
            if chain:
                mid = _ex72_chain_mid(values[:-1], values[1:])
                ok = mid > 0
            else:
                a, b, c = values[:-2], values[1:-1], values[2:]  # every try, sorted below
                lo, hi = np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)
                middle = np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))
                ok = (hi - middle >= cfg["min_gap"]) & (middle - lo >= cfg["min_gap"])
            # the set that starts at s accepts the try at picks[s] and ends at
            # step[s], which is s if it runs past the values, size + 1 if it fails
            at, found = np.arange(size + 1), _next_accepted(ok, width)
            picks = np.append(found, found.size)[np.minimum(at + lead, found.size)]
            step = np.where(picks + width + tail <= size, picks + width + tail, at)
            step[(picks - at - lead) // width >= MAX_SAMPLER_TRIES] = size + 1
            step = np.append(step, size + 1)
            points = _orbit(step, m)
            starts = points[(step[points] > points) & (step[points] <= size)][:m]
            failed = starts.size < m and points[-1] == size + 1
            if starts.size == m or failed or (starts.size and size >= CHUNK_VALUES):
                break
        rng.bit_generator.state = state  # pass two
        end = step[starts[-1]] if starts.size else 0
        picks, lows, highs = picks[starts], np.full(end, box[0]), np.full(end, box[1])
        if chain:
            hi, lo = EX72_CHAIN_BOUNDS
            lows[picks + 2], highs[picks + 2] = mid[picks] / hi, mid[picks] / lo
        else:
            lows[starts], highs[starts] = (float(v) for v in cfg["a_box"])
        drawn = rng.uniform(lows, highs)
        tries = [drawn[picks + k] for k in range(width)]
        if chain:
            cols = {"p": np.sqrt(drawn[picks + 2]), "q": tries[0], "r": tries[1]}
        else:
            cols = dict(zip("qrp", np.sort(tries, axis=0)), a=drawn[starts])
        yield np.column_stack([cols[k] for k in names])
        if failed:
            raise InvalidInputError(
                f"sampler drew no (q, r) with a nonempty chain interval from {cfg['qr_box']} "
                f"in {MAX_SAMPLER_TRIES} tries" if chain else
                f"sampler drew no (p, r, q) with gaps >= {cfg['min_gap']:g} from "
                f"{cfg['pqr_box']} in {MAX_SAMPLER_TRIES} tries")
        n -= starts.size
