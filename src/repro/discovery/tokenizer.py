"""Boundary tokenizer: per-bit flip statistics -> signal tokens.

The core ACTT observation: within one signal, flip rate falls (roughly
halves, for counter-like streams) with each step up in bit significance,
because a bit flips only when everything below it wraps. In DBC bit
numbering, significance rises with in-byte position for *both* byte
orders -- Intel and Motorola differ only in which neighbouring byte
continues the run. The tokenizer therefore works in two layers:

1. **per-byte chunks** -- scan each byte's active bits upward and cut
   where the flip rate *rises* beyond tolerance (a new LSB is busier
   than the previous signal's MSB); inactive bits split runs for free;
2. **cross-byte chains** (the ByCAN-style byte refinement) -- a chunk
   touching its byte's top may continue into the next byte's bottom
   chunk (Intel: next byte is more significant), and a chunk touching
   its byte's bottom may continue into the next byte's top chunk
   (Motorola: next byte is less significant). Candidate links must keep
   the flip-rate profile monotone; when both byte orders are
   structurally possible the link with the more plausible cross-byte
   rate drop wins (ties go to Intel, the dominant convention).

Bits that never flip but are always set become *constant* tokens
(optional); never-set bits are padding and produce nothing. A token is
pure geometry -- :class:`Token` knows its bit positions in significance
order and can mint a :class:`~repro.protocols.signalcodec.SignalEncoding`
via :meth:`SignalEncoding.from_bit_positions`; signedness, data class
and scaling are the inference stage's job.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.discovery.observations import DiscoveryConfig
from repro.protocols.signalcodec import INTEL, MOTOROLA, SignalEncoding


@dataclass(frozen=True)
class Token:
    """One recovered signal boundary.

    ``positions`` are absolute payload bit positions in significance
    order (least significant first), exactly like
    :meth:`SignalEncoding.bit_positions`.
    """

    positions: tuple
    byte_order: str = INTEL
    constant: bool = False

    @property
    def first_bit(self):
        return min(self.positions)

    @property
    def bit_length(self):
        return len(self.positions)

    def bit_set(self):
        return frozenset(self.positions)

    def encoding(self, **kwargs):
        return SignalEncoding.from_bit_positions(
            self.positions, self.byte_order, **kwargs
        )


def tokenize(stats, config=None):
    """Cut one message's :class:`BitStats` into :class:`Token` s.

    Returns tokens sorted by lowest bit position. Messages with fewer
    samples than ``config.min_frames`` yield no tokens -- too little
    evidence to place a boundary.
    """
    if config is None:
        config = DiscoveryConfig()
    if stats.samples < config.min_frames or stats.num_bits == 0:
        return []
    rates = [stats.flip_rate(p) for p in range(stats.num_bits)]
    active = [
        stats.flips[p] > 0 and stats.pairs[p] >= config.min_bit_pairs
        for p in range(stats.num_bits)
    ]
    chunks_by_byte = [
        _byte_chunks(rates, active, byte_index, config)
        for byte_index in range(stats.num_bits // 8)
    ]
    tokens = _chain_chunks(chunks_by_byte, rates, config)
    if config.emit_constants:
        tokens.extend(_constant_tokens(stats, config))
    tokens.sort(key=lambda token: token.first_bit)
    return tokens


def _byte_chunks(rates, active, byte_index, config):
    """Maximal runs of active bits within one byte, cut on rate rises."""
    base = byte_index * 8
    chunks = []
    current = []
    for position in range(base, base + 8):
        if not active[position]:
            if current:
                chunks.append(current)
                current = []
            continue
        if current and _is_boundary(rates[current[-1]], rates[position],
                                    config):
            chunks.append(current)
            current = []
        current.append(position)
    if current:
        chunks.append(current)
    return chunks


def _is_boundary(previous_rate, next_rate, config):
    """Both boundary signatures: a rate rise *from a decayed tail*.

    A rise alone is not enough -- a sensor stepping by ~(2**k - 1) per
    frame flips bit k almost every frame while the k bits below it
    decrement, so bit k's rate jumps above its neighbour's mid-range
    rate without any signal ending there. A finished signal's MSB, by
    contrast, has decayed to near zero before the next LSB fires.
    """
    return next_rate > (
        previous_rate * (1.0 + config.flip_tolerance) + config.flip_epsilon
    ) and previous_rate <= config.cut_tail_rate


@dataclass
class _Chain:
    """A growing cross-byte token (significance-ordered positions)."""

    positions: list
    direction: str = None
    absorbed: bool = False
    links: int = 0


def _chain_chunks(chunks_by_byte, rates, config):
    """Link byte chunks across byte boundaries into signal chains."""
    chain_of = {}
    chains = []
    for byte_index, chunk_list in enumerate(chunks_by_byte):
        for chunk_index, chunk in enumerate(chunk_list):
            chain = _Chain(positions=list(chunk))
            chain_of[(byte_index, chunk_index)] = chain
            chains.append(chain)
    for byte_index in range(len(chunks_by_byte) - 1):
        left = chunks_by_byte[byte_index]
        right = chunks_by_byte[byte_index + 1]
        if not left or not right:
            continue
        intel_link = _intel_candidate(
            left, right, byte_index, chain_of, rates, config
        )
        moto_link = _moto_candidate(
            left, right, byte_index, chain_of, rates, config
        )
        if intel_link and moto_link and not (
            set(intel_link[:2]) & set(moto_link[:2])
        ):
            # Disjoint chunk pairs: both byte orders continue here
            # (e.g. an Intel run through the byte top and a Motorola
            # sawtooth through the byte bottom).
            _apply_link(chain_of, chains, *intel_link)
            _apply_link(chain_of, chains, *moto_link)
        elif intel_link and moto_link:
            # One chunk would serve both; keep the direction whose
            # cross-byte significance claim fits the rate profile best.
            intel_score = _link_score(intel_link, chunks_by_byte, rates)
            moto_score = _link_score(moto_link, chunks_by_byte, rates)
            if moto_score < intel_score:
                _apply_link(chain_of, chains, *moto_link)
            else:
                _apply_link(chain_of, chains, *intel_link)
        elif intel_link:
            _apply_link(chain_of, chains, *intel_link)
        elif moto_link:
            _apply_link(chain_of, chains, *moto_link)
    tokens = []
    for chain in chains:
        if chain.absorbed:
            continue
        byte_order = chain.direction if chain.direction else INTEL
        tokens.append(Token(tuple(chain.positions), byte_order))
    return tokens


def _intel_candidate(left, right, byte_index, chain_of, rates, config):
    """Link (left_key, right_key, direction) continuing an Intel run."""
    left_chunk, right_chunk = left[-1], right[0]
    if left_chunk[-1] % 8 != 7 or right_chunk[0] % 8 != 0:
        return None
    chain = chain_of[(byte_index, len(left) - 1)]
    if chain.direction not in (None, INTEL):
        return None
    # The next byte's bottom continues upward in significance: a
    # boundary signature (rise from a decayed tail) refuses the link.
    if _is_boundary(rates[left_chunk[-1]], rates[right_chunk[0]], config):
        return None
    return ((byte_index, len(left) - 1), (byte_index + 1, 0), INTEL)


def _moto_candidate(left, right, byte_index, chain_of, rates, config):
    """Link continuing a Motorola sawtooth (next byte less significant)."""
    left_chunk, right_chunk = left[0], right[-1]
    if left_chunk[0] % 8 != 0 or right_chunk[-1] % 8 != 7:
        return None
    chain = chain_of[(byte_index, 0)]
    if chain.direction not in (None, MOTOROLA):
        return None
    # The next byte's top sits just *below* the current LSB in
    # significance: a boundary signature there refuses the link.
    if _is_boundary(rates[right_chunk[-1]], rates[left_chunk[0]], config):
        return None
    return ((byte_index, 0), (byte_index + 1, len(right) - 1), MOTOROLA)


def _link_score(link, chunks_by_byte, rates):
    """How implausible a link's significance claim is (lower = better).

    A link claims its more-significant chunk flips no more than its
    less-significant one; the score is the mean-rate excess of the
    claimed more-significant chunk (Intel: the right chunk, Motorola:
    the left chunk).
    """
    left_key, right_key, direction = link
    left_chunk = chunks_by_byte[left_key[0]][left_key[1]]
    right_chunk = chunks_by_byte[right_key[0]][right_key[1]]
    if direction == INTEL:
        more, less = right_chunk, left_chunk
    else:
        more, less = left_chunk, right_chunk
    return _mean_rate(more, rates) - _mean_rate(less, rates)


def _mean_rate(chunk, rates):
    return sum(rates[p] for p in chunk) / len(chunk)


def _constant_tokens(stats, config):
    """Maximal runs of stuck-at-one bits (flag/padding words).

    Never-set bits are indistinguishable from padding and produce
    nothing; always-set runs are genuine constants worth recording so
    the synthesized database documents them. Single-run tokens are
    byte-order-agnostic; they are emitted as canonical Intel.
    """
    tokens = []
    current = []
    for position in range(stats.num_bits):
        stuck = (
            stats.covered[position] >= config.min_frames
            and stats.flips[position] == 0
            and stats.ones[position] == stats.covered[position]
        )
        if stuck:
            current.append(position)
            continue
        if current:
            tokens.append(Token(tuple(current), constant=True))
            current = []
    if current:
        tokens.append(Token(tuple(current), constant=True))
    return tokens


def _apply_link(chain_of, chains, left_key, right_key, direction):
    chain = chain_of[left_key]
    right_chain = chain_of[right_key]
    if right_chain is chain or right_chain.absorbed:
        return
    if direction == INTEL:
        chain.positions = chain.positions + right_chain.positions
    else:
        chain.positions = right_chain.positions + chain.positions
    chain.direction = direction
    chain.links += 1
    right_chain.absorbed = True
    chain_of[right_key] = chain
