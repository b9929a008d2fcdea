"""The kernel: blocks of trials, trial-batched on numpy, stream-exact with the scalar trial loop.

A block (conventional or tracking, analog or digital, any quadrature,
ancilla noise and level its config accepts) runs in chunks of trials, and a
chunk always runs all its trials.  It draws the normals and tie coins of
the stream contract (:mod:`gkptrack.kernels`), and reaches the decisions,
count and final generator states of a scalar loop that simulates one trial
at a time and decides each decode by :func:`gkptrack.protocols.decide` (the
tests keep that loop in ``tests/oracle.py``).  Tie coins come from
:func:`coin_generator`, one per block.

Each chunk takes all its normals in one ``standard_normal`` call, which
yields the values one-at-a-time calls would, in the contract's draw order:
per trial, per cycle, per qubit the channel normal followed, in recorded
tracking cycles, by the ancilla normals ``a1`` and ``a2`` when the ancilla
sigma is above zero.

Layout.  :func:`_records` forms the bits and binned records of every decode,
:func:`_leaf_likelihoods` their scaled likelihoods, and :func:`_decide`
decides them in stages: :func:`_c4_tables`, :func:`_fold` and
:func:`_first_pair`.  A tracking trial is one decode of ``cycles`` records
per qubit; a conventional cycle is a decode of one record per qubit, so a
conventional chunk decodes ``cycles * trials`` columns in ``(cycle, trial)``
order.  The records read the chunk's ``(trial, draw)`` normals through a
transposed view in their first multiply, so every later array is leaf-major:
the records are one preallocated ``(record, leaf, decode)`` array, and a
per-qubit quantity a contiguous ``(leaf, decode)`` block.  Every pass runs
over the decode axis; the decode gathers and reduces on the leading axes
only.  Binning and the recorded deviations take a scalar trial's IEEE
operations in its order (:func:`_bin`), so the measured bits and the records
are bitwise a scalar trial's values.  No bin feeds back into a deviation, so
a chunk forms every record first and bins them in one pass.  With perfect
ancillas (in q: the config refuses p there) a record is its normal times
``sigma_cycle``, one multiply per chunk; the scalar adds of ``0.0`` are left
out, as they change no bin and no ``|record|``.  A qubit's bit is the parity
of its summed lattice indices.

Chunks.  A block runs in as few equal chunks as fit its normals:
:data:`CHUNK_DRAWS` analog, :data:`DIGITAL_CHUNK_DRAWS` digital (one chunk
for a 2,048-trial conventional L2 point).  A chunk's normals, its
records, their bins, its ancilla values and, analog, its flip ratios (in
the quotients' buffer, once binning ends) live in buffers that each thread
keeps and reuses (:func:`_buffer`), so a chunk takes no fresh pages; the
normals are drawn into theirs by ``standard_normal(out=)``.
A digital chunk keeps no record, so it bins its records in place, and its
lattice indices go into its own normals' memory.  Blocks run on a
two-stage pipeline (:class:`Normals`): a helper thread draws the next
chunk's normals while this one decodes, into the other of two normals
buffers, and only into a buffer the decoder has released;
``standard_normal`` fills without holding the GIL, so the two overlap.  A
one-worker sweep keeps one pipeline, and so one helper, for its whole run
(:func:`pipeline`): the helper draws every chunk of every block in decode
order, and while a block's last chunk decodes it draws the first of the
next block the sweep is certain to run, in the point or the next point.  A
block run alone, or on a ``--workers`` thread, feeds a pipeline of its own
its chunks: one of more than one chunk (a tracking analog block of 8,192
trials runs 8 at L1 and 25 at L2) starts a helper and joins it before it
returns, and a one-chunk block draws on its own thread and starts none.

Digital decodes are exact.  Every leaf of a digital decode carries the same
likelihood pair, :func:`gkptrack.protocols.digital_pair`, so a C4 block's
table depends only on how many of its four bits each word of each class
matches, and a C6 fold only on its three sub-tables.
:class:`DigitalDecoder` computes the 5 distinct C4 tables with the scalar
:func:`gkptrack.codes.block_pair_likelihoods` (one per pattern of
:data:`_C4_FIRST`) and folds triples in batches with
:func:`gkptrack.codes.c6_level_up_rows`, the scalar fold bit for bit; it
numbers the distinct tables of each level and decides each top table once by
:func:`gkptrack.codes.first_bit`.  A decode is then a few array lookups, and
it ties exactly where the scalar decoder does.  The levels whose triples fit
:data:`_DENSE_KEYS` (L2 and L3) are folded whole when the decoder is made;
above them each chunk folds its own distinct triples in one batch, and drops
those tables with the chunk.  A decoder never changes once made, so one
serves every block of its config on any thread (:func:`digital_decoder`).

Analog decodes run over the whole chunk in the scaled probability domain,
with no log-add-exp, at some thirty multiplies in numpy.  A record's scaled
match and flip likelihoods are 1 and ``rho = exp(l_flip - l_match)``, which
is ``exp((2 sqrt(pi) a - pi) / (2 sigma^2))`` for a binned deviation ``a``
and lies in ``[0, 1]`` on the bin range, up to rounding.  A leaf's are the
parity convolution of its records', ``even, odd = even + odd * rho, even *
rho + odd`` for each record after the first, and a decode's log scale is the
sum of its records' match log densities (``protocols._analog_pair``),
``-(sum a^2) / (2 sigma^2) - K log(sigma sqrt(2 pi))``
(:func:`_leaf_likelihoods`).  C4 tables (:func:`_c4_tables`) and C6 folds
(:func:`_fold`) are sums of products.  Each level's tables are divided by
their peaks, whose logs join the decode's scale (:func:`_divide_by_peaks`),
so ``l0 = log(t00 + t01) + scale`` and ``l1 = log(t10 + t11) + scale`` are
the scalar decoder's log-domain values (:func:`_first_pair`).

These values may differ from the scalar ``math`` results in the last bits,
some 1e-15 relative to the log-domain magnitudes.  Only the sign of ``l1 -
l0`` matters, so a decode is sure when its gap is above
:data:`TIE_TOLERANCE` relative to ``1 + |l0| + |l1|``, six orders of
magnitude above that rounding, or when exactly one of ``t00 + t01`` and
``t10 + t11`` underflowed to zero: the other is at least 1 after the
division by the peak.  Underflow is the one place where the probability
domain loses more than rounding: a product that underflows moves a table
entry by up to 1e-323 divided by the peaks it is divided by afterwards.
While the product of every level's smallest peak stays above 1e-250
(``_LOG_FLOOR``), that moves a top entry by less than some 1e-73 times 12
per level; a decode below the floor is not sure.  A decode that is not sure,
or that holds a record outside the bin range (``|a| > sqrt(pi)/2`` after
rounding, which the scalar decision refuses, flagged per decode), makes its
trial replay: the chunk gathers each replayed trial's bits and binned
records from its one :func:`_records` pass, as nothing writes over them, and
:func:`run_trial` decides each such trial's decodes again, in cycle order,
by the scalar :func:`gkptrack.protocols.decide`.  So every decision equals
the scalar decoder's, and every error it raises is raised.  Replays are rare
except at the extremes: near-ties at very high noise (tracking L3 at
``sigma_cycle`` 1.5 replays every trial), and flip ratios that underflow in
odd-parity blocks (tracking at ``sigma_cycle`` 0.005 with ancilla sigma 0.3
replays 23-93% of its trials from L1 to L3).

Tie coins come from the block's coin generator in trial order (stream
contract in :mod:`gkptrack.kernels`).  A chunk's digital ties take one
``random`` call, in (trial, cycle) order; an analog decode that ties exactly
is one the scalar replay decides, and replays run in (trial, cycle) order,
on the bits and records gathered from the chunk's one pass.  A block's
coin generator is taken when the block is queued on its pipeline, before
any normal is drawn.  After that one thread alone reads the noise
generator, in chunk order: the pipeline's helper, or the block's thread
while the pipeline has none; only the block's thread reads the coin
generator.  So the count and the final states of both generators equal the
scalar loop's, whatever the chunk size and whichever block the helper
draws for.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import queue
import threading
from collections import deque

import numpy as np

from .. import codes, protocols
from ..codes import C6_SLOTS, PAIR_VALUE, block_size, c4_table
from ..gkp import HALF_SQRT_PI, SQRT_PI
from . import ProtocolConfig

#: normals drawn per analog chunk at most.  On tracking analog L1-L3 blocks of
#: 8,192 trials (2-core VM, numpy 2.4.6, two runs), chunks of 4,096 normals ran
#: at 0.69-0.79x the speed of this size, 16,384 at 0.79-0.92x and 32,768 at
#: 0.79-0.85x, before chunks reused their buffers.  With reused buffers and
#: before the pipeline, the ``tracking-analog`` benchmark sweep (in process,
#: same VM) ran 16,384 no faster, with some 2,500 minor page faults per sweep
#: against 1 here, and 32,768 took 2.2 MB more peak RSS for no gain.  With
#: the pipeline, 16,384 read 0.035-0.043 s a sweep against 0.037-0.053 s here
#: (five alternated processes each), and this size 7 or 3,020 faults by heap
#: layout: retune only on alternated perfbench runs.
CHUNK_DRAWS = 8192
#: normals drawn per digital chunk at most.  Each chunk's decode pays a fixed
#: cost in numpy calls and fold lookups, and with reused buffers its 1 MB of
#: normals takes no fresh pages.  Warm 8,192-trial blocks ran 1.3-2.5x faster
#: at L2-L4 and 1.0-1.5x at tracking L1 than in chunks of CHUNK_DRAWS on fresh
#: arrays (2-core VM, numpy 2.4.6).
DIGITAL_CHUNK_DRAWS = 1 << 17
#: relative gap ``|l1 - l0| / (1 + |l0| + |l1|)`` at or below which the
#: scalar reference decides an analog trial
TIE_TOLERANCE = 1e-9
# log of the floor on the product of every level's smallest table peak, below
# which an analog decode may rest on underflowed products: such decodes replay
_LOG_FLOOR = np.log(1e-250)

# C4 words by class, then word, as indices 2*w1 + w2 and 2*w3 + w4 into the
# pair products of leaves 1, 2 and of leaves 3, 4
_C4_LEFT, _C4_RIGHT = np.array([[2 * w[0] + w[1], 2 * w[2] + w[3]]
                                for ci in range(4) for w in c4_table().codewords[PAIR_VALUE[ci]]]).T
# a leaf's bit against a codeword bit of 0, then of 1
_BIT_VALUES = np.arange(2).reshape(2, 1, 1)
#: :class:`DigitalDecoder`'s first-bit code of a top table that ties exactly
_TIE = 2
# levels whose sub-table count k has k**3 up to this number are folded whole
# when a decoder is made, their numbers kept by key (n0*k + n1)*k + n2 in at
# most 512 KB: every L2 and L3 fold seen (k up to 27); each chunk folds the
# levels above from its own triples
_DENSE_KEYS = 1 << 16


_C4_PATTERNS = list(itertools.product((0, 1), repeat=4))
# for each C4 bit pattern, the first with the same per-class sorted counts of
# its bits that each word matches, on which alone a digital table depends
# (codes._word_sum adds equal terms, logsumexp_sorted sorts the words): 5
# tables, the even patterns of each class and the odd patterns
_C4_COUNTS = [[sorted(sum(b == w for b, w in zip(bits, word)) for word in c4_table().codewords[PAIR_VALUE[ci]])
               for ci in range(4)] for bits in _C4_PATTERNS]
_C4_FIRST = [_C4_COUNTS.index(counts) for counts in _C4_COUNTS]


def coin_generator(generator) -> np.random.Generator:
    """The tie-coin generator of a block whose normals come from ``generator``."""
    return np.random.Generator(generator.bit_generator.jumped())


def run_block(params: ProtocolConfig, generator, trials: int) -> int:
    """Run ``trials`` trials off one generator; returns their failure count.

    Tie coins come from the block's :func:`coin_generator`.  A digital
    config decodes on :func:`digital_decoder`'s decoder.  The block runs on
    the :class:`Normals` pipeline of the sweep running on this thread
    (:func:`pipeline`), or, outside one, on a pipeline of its own.
    """
    normals = getattr(_pipelines, "normals", None)
    if normals is not None:
        return normals.run(params, generator, trials)
    with Normals() as normals:
        return normals.run(params, generator, trials)


# the normals pipeline of the sweep running on each thread
_pipelines = threading.local()


@contextlib.contextmanager
def pipeline(ahead):
    """Run this thread's blocks on one :class:`Normals` until the context ends; ``ahead`` names the block after each."""
    outer = getattr(_pipelines, "normals", None)
    with Normals(ahead) as normals:
        _pipelines.normals = normals
        try:
            yield normals
        finally:
            _pipelines.normals = outer


class Normals:
    """Blocks run in order, each chunk's normals drawn while the chunk before it decodes: a two-stage pipeline.

    A helper thread draws the queued chunks' normals in queue order,
    alternating between two buffers, and fills a buffer only once the
    decoder has released it; ``standard_normal`` fills without holding the
    GIL, so the draws overlap the decode.  The helper starts when a chunk is
    wanted and another is queued behind it, and lives until :meth:`close`; a
    lone chunk is drawn on the decoding thread.  :meth:`run` queues its
    block, unless it is the one queued, and then the block ``ahead()`` names
    (``(params, generator, trials)``, or ``None``), which is drawn while this
    one decodes; ``ahead`` must name only a block certain to run next.  A
    block's coin generator is taken when it is queued, before any draw, and
    during a block only the helper, or the decoding thread while there is
    none, reads its generator, so the stream is the one a single thread
    draws.  The buffers are the thread's: the next pipeline on it reuses
    them.
    """

    def __init__(self, ahead=None) -> None:
        self._ahead = ahead
        # queued blocks not yet run: (params, generator, trials, coins, sizes)
        self._queued = deque()
        # chunks queued but not yet decoded, and the helper that draws them
        self._waiting = 0
        self._helper = None
        # chunks to draw, (generator, size, draws), then None when the pipeline closes
        self._chunks = queue.SimpleQueue()
        # buffers the decoder has released, then None when the pipeline closes
        self._free = queue.SimpleQueue()
        # the thread's two buffers, lent to this pipeline until it closes
        for buffer in getattr(_buffers, "normals", None) or (np.empty(0), np.empty(0)):
            self._free.put(buffer)
        _buffers.normals = None
        # each chunk's (buffer, normals) in chunk order, or the exception that stopped the helper
        self._drawn = queue.SimpleQueue()

    def __enter__(self) -> Normals:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(self, params: ProtocolConfig, generator, trials: int) -> int:
        """Failure count of a block: :func:`run_block` on this pipeline's normals.

        A block other than the one queued next raises ``RuntimeError``.
        """
        if not self._queued:
            self._queue(params, generator, trials)
        block = self._queued.popleft()
        if block[:3] != (params, generator, trials):
            raise RuntimeError("a block ran out of the order of its sweep's pipeline")
        following = self._ahead() if self._ahead is not None else None
        if following is not None:
            self._queue(*following)
        coins, sizes = block[3:]
        decoder = None if params.analog else digital_decoder(params)
        failures = 0
        # underflowed or non-finite values make an analog decode unsure, not an error
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for _ in sizes:
                buffer, z = self._next()
                failures += _run_chunk(params, z, coins, decoder)
                self._free.put(buffer)
        return failures

    def _queue(self, params, generator, trials) -> None:
        """Queue a block's chunks: as few equal chunks as fit the chunk's normals."""
        coins = coin_generator(generator)
        n = block_size(params.level)
        # ancilla normals only with ancilla noise, which the conventional protocol refuses
        draws = (params.cycles - 1) * n * (3 if params.sigma_ancilla > 0.0 else 1) + n
        chunks = max(1, -(-trials // max(1, (CHUNK_DRAWS if params.analog else DIGITAL_CHUNK_DRAWS) // draws)))
        chunk = max(1, -(-trials // chunks))
        sizes = [min(chunk, trials - start) for start in range(0, trials, chunk)]
        for size in sizes:
            self._chunks.put((generator, size, draws))
        self._waiting += len(sizes)
        self._queued.append((params, generator, trials, coins, sizes))

    def _next(self):
        """The next chunk's buffer and normals, ``(size, draws)``."""
        self._waiting -= 1
        if self._helper is None:
            if not self._waiting:
                return _draw(self._free.get(), *self._chunks.get())
            # joined by close; a daemon, so no fault could keep the interpreter from exiting
            self._helper = threading.Thread(target=self._draw_ahead, name="gkptrack-normals", daemon=True)
            self._helper.start()
        drawn = self._drawn.get()
        if isinstance(drawn, Exception):
            raise drawn
        return drawn

    def _draw_ahead(self) -> None:
        """The helper: draws each queued chunk into a released buffer until the pipeline closes."""
        try:
            while (chunk := self._chunks.get()) is not None:
                buffer = self._free.get()
                if buffer is None:
                    return
                self._drawn.put(_draw(buffer, *chunk))
        except Exception as error:  # raised on the decoding thread
            self._drawn.put(error)

    def close(self) -> None:
        """Stop the helper, once it has drawn what it is drawing, and keep the released buffers for the thread."""
        if self._helper is not None:
            self._chunks.put(None)
            self._free.put(None)
            self._helper.join()
        buffers = []
        while not self._free.empty():
            buffer = self._free.get()
            if buffer is not None:
                buffers.append(buffer)
        # a buffer that held a chunk when an error stopped the block is replaced
        _buffers.normals = buffers + [np.empty(0)] * (2 - len(buffers))


def _draw(buffer, generator, size: int, draws: int):
    """``buffer``, or a new one when it is too small, and a chunk's normals drawn into it as ``(size, draws)``."""
    if buffer.size < size * draws:
        buffer = np.empty(size * draws)
    return buffer, generator.standard_normal(out=np.ndarray((size, draws), buffer=buffer))


def _run_chunk(params, z, coins, decoder) -> int:
    """Failure count of the trials whose normals are ``z``, one row per trial.

    A digital decode overwrites ``z`` with its lattice indices.
    """
    trials = len(z)
    bits, records = _records(params, z)
    if decoder is None:
        scale, match, flip, outside = _leaf_likelihoods(records, params.sigma_cycle)
        bit, unsure = _decide(bits, scale, match, flip)
        unsure |= outside
    else:
        bit, tie = decoder.decide(bits)
        n_ties = np.count_nonzero(tie)
        if n_ties:
            # codes._coin: 0 below one half; coins in (trial, cycle) order
            bit.reshape(-1, trials).T[tie.reshape(-1, trials).T] = coins.random(n_ties) >= 0.5
        unsure = None
    # truth is 0 in every cycle: a trial fails on an odd count of wrong
    # decodes, one per conventional cycle and one per tracking trial
    if len(bit) > trials:
        bit = np.bitwise_xor.reduce(bit.reshape(-1, trials), axis=0)
        if unsure is not None:
            unsure = np.logical_or.reduce(unsure.reshape(-1, trials), axis=0)
    if unsure is None or not np.count_nonzero(unsure):
        return int(np.count_nonzero(bit))
    failures = int(np.count_nonzero(bit & ~unsure))
    # gather each unsure trial's decodes, (cycle, trial) columns or one per
    # trial, from the first pass's bits and records
    rows = np.flatnonzero(unsure)
    bits = bits.reshape(len(bits), -1, trials)[..., rows]
    records = records.reshape(*records.shape[:2], -1, trials)[..., rows]
    for j in range(len(rows)):
        failures += run_trial(params, bits[..., j], records[..., j], coins)
    return failures


def run_trial(params: ProtocolConfig, bits, records, coins) -> int:
    """Failure indicator of one replayed trial: :func:`gkptrack.protocols.decide` of each decode, XORed in cycle order.

    ``bits`` holds the trial's leaf bits, ``(leaf, decode)``, and ``records``
    its binned records, ``(record, leaf, decode)``: a decode per conventional
    cycle, one per tracking trial.  The truth is 0, so the XOR of the decoded
    bits is the failure indicator.
    """
    failed = 0
    for leaf_bits, leaf_records in zip(bits.T.tolist(), records.transpose(2, 1, 0).tolist()):
        failed ^= protocols.decide(params, leaf_bits, leaf_records, coins)
    return failed


# each thread's chunk buffers, by name
_buffers = threading.local()


def _buffer(name: str, shape, dtype=np.float64):
    """This thread's reused buffer ``name`` as a contiguous ``shape`` array; it grows and never shrinks.

    A chunk's arrays live in these buffers, so chunks take no fresh pages,
    and each ``--workers`` thread has its own.
    """
    size = math.prod(shape)
    buffer = getattr(_buffers, name, None)
    if buffer is None or buffer.size < size:
        # float64 and int64 elements take 8 bytes alike
        buffer = np.empty(size)
        setattr(_buffers, name, buffer)
    return np.ndarray(shape, dtype, buffer)


# the decoder of the last digital config a block ran, and the lock that builds it
_decoder = None
_decoder_lock = threading.Lock()


def digital_decoder(params: ProtocolConfig) -> DigitalDecoder:
    """The :class:`DigitalDecoder` of ``params``: the one kept, or a new one that replaces it.

    A sweep's blocks in flight share one point, so its threads build one
    decoder, and no earlier point's decoder stays alive.
    """
    global _decoder
    with _decoder_lock:
        if _decoder is None or _decoder.params != params:
            _decoder = DigitalDecoder(params)
        return _decoder


class DigitalDecoder:
    """Exact first-pair bits of a digital config's decodes, from numbered tables; it never changes once made.

    C4 and each level whose sub-table count ``k`` has ``k**3`` at most
    :data:`_DENSE_KEYS` are folded whole when the decoder is made, their
    numbers kept by key ``(n0*k + n1)*k + n2``.  Each level above is folded
    in :meth:`decide` from the chunk's distinct triples, and its tables are
    numbered for that chunk alone.  So threads may share a decoder.
    """

    def __init__(self, params: ProtocolConfig) -> None:
        self.params = params
        pair = protocols.digital_pair(params)
        tables = {first: codes.block_pair_likelihoods(c4_table(), _C4_PATTERNS[first], [pair] * 4)
                  for first in set(_C4_FIRST)}
        c4, self._c4 = _distinct(np.array([tables[first] for first in _C4_FIRST]))
        # the distinct tables of C4 and of each whole level, (k, 4), and the
        # numbers by key of each whole level above C4
        self._tables, self._by_key = [c4], []
        while len(self._tables) < params.level and len(self._tables[-1]) ** 3 <= _DENSE_KEYS:
            k = len(self._tables[-1])
            keys = np.arange(k ** 3)
            tables, by_key = _distinct(codes.c6_level_up_rows(
                self._tables[-1], keys // (k * k), keys // k % k, keys % k))
            self._tables.append(tables)
            self._by_key.append(by_key)
        # the levels folded chunk by chunk, above the whole ones
        self._chunk_levels = params.level - len(self._tables)
        # first bit of each top table, or _TIE, when the top level is whole
        self._first_bits = None if self._chunk_levels else _first_bits(self._tables[-1])

    def decide(self, bits):
        """First-pair bits of decodes, and which of them tie exactly.

        ``bits`` holds one column of leaf bits per decode, leaves in
        :func:`gkptrack.codes.decode` order: ``(leaf, row)``.
        """
        numbers = self._c4[(bits[0::4] << 3) | (bits[1::4] << 2) | (bits[2::4] << 1) | bits[3::4]]
        for tables, by_key in zip(self._tables, self._by_key):
            k = len(tables)
            numbers = by_key[(numbers[0::3] * k + numbers[1::3]) * k + numbers[2::3]]
        tables = self._tables[-1]
        for _ in range(self._chunk_levels):
            triples = np.stack((numbers[0::3], numbers[1::3], numbers[2::3]), axis=-1)
            distinct, inverse = _distinct(triples.reshape(-1, 3))
            tables, folded = _distinct(codes.c6_level_up_rows(tables, *distinct.T))
            numbers = folded[inverse].reshape(triples.shape[:-1])
        first = (_first_bits(tables) if self._chunk_levels else self._first_bits)[numbers[0]]
        return first == 1, first == _TIE


def _distinct(rows):
    """The distinct rows of the 2-d array ``rows``, and each row's index among them."""
    # sorted, equal rows are neighbours
    order = np.lexsort(rows.T)
    ordered = rows[order]
    first = np.concatenate(([True], (ordered[1:] != ordered[:-1]).any(axis=1)))
    index = np.empty(len(rows), dtype=np.int64)
    index[order] = np.cumsum(first) - 1
    return ordered[first], index


def _first_bits(tables):
    """:func:`gkptrack.codes.first_bit` of each top table row, :data:`_TIE` for a tie, as int8."""
    bits = [codes.first_bit(row) for row in tables.tolist()]
    return np.array([_TIE if bit is None else bit for bit in bits], np.int8)


def _bin(x, indices=None):
    """Lattice indices ``s = ceil(x / sqrt(pi) - 0.5)`` of ``x``, as int64.

    ``s`` is the nearest multiple of sqrt(pi), half ties down (the
    convention of :mod:`gkptrack.gkp`), and its parity the measured bit.
    Without ``indices``, ``x`` is overwritten with the binned deviations
    ``x - s * SQRT_PI``, in ``(-sqrt(pi)/2, sqrt(pi)/2]`` up to rounding;
    with, its values are not kept: it is divided in place, and the indices
    go into the memory of ``indices``.
    """
    record = indices is None
    t = np.divide(x, SQRT_PI, out=_buffer("t", x.shape) if record else x)
    t -= 0.5
    s = np.ceil(t, out=_buffer("s", x.shape, np.int64) if record else np.ndarray(x.shape, np.int64, indices),
                casting="unsafe")
    if record:
        x -= np.multiply(s, SQRT_PI, out=t)
    return s


def _records(params: ProtocolConfig, normals):
    """Bits of every decode, ``(leaf, decode)``, and, analog, its binned records, ``(record, leaf, decode)``.

    ``normals`` holds the trials' normals, ``(trial, draw)``, read through
    their transpose; a digital chunk overwrites them with its lattice
    indices, and gets no records.  Conventional trials give ``cycles *
    trials`` decodes, in ``(cycle, trial)`` order, tracking trials one each.
    A recorded tracking cycle is one single-qubit correction: with ``d`` a
    qubit's deviation after the channel and ``a1``, ``a2`` its two ancillas'
    deviations, it records ``a2 + (d + a1)`` and leaves ``-a2`` in q, and
    records ``a1 - d`` and leaves ``a1 - a2`` in p.  A qubit's bit is the
    parity of its lattice indices summed over its records: its measured bit
    XOR the flips its corrections made.
    """
    z = normals.T
    trials = z.shape[1]
    n = block_size(params.level)
    sigma = params.sigma_cycle
    cycles = params.cycles
    sigma_ancilla = params.sigma_ancilla
    # (record, leaf, decode): a conventional cycle's deviations, a tracking
    # trial's recorded cycles' measured values and then its final deviation
    conventional = params.protocol == "conventional"
    records = _buffer("x", (1, n, cycles * trials) if conventional else (cycles, n, trials))
    if sigma_ancilla == 0.0:
        # q: a record is its fresh channel deviation, and teleportation or a
        # correction with a1 = a2 = 0 leaves the qubit none of it
        out = records.reshape(n, cycles, trials).transpose(1, 0, 2) if conventional else records
        np.multiply(z.reshape(cycles, n, trials), sigma, out=out)
    else:
        # each pass is one operation of a scalar trial, in its order, over all cycles:
        # record c adds what correction c - 1 left to its channel deviation, then c measures it
        recorded = z[:-n].reshape(cycles - 1, n, 3, trials)
        np.multiply(recorded[:, :, 0], sigma, out=records[:-1])
        np.multiply(z[-n:], sigma, out=records[-1])
        a1, a2 = np.multiply(recorded[:, :, 1:].transpose(2, 0, 1, 3), sigma_ancilla,
                             out=_buffer("a", (2, cycles - 1, n, trials)))
        if params.quadrature == "q":
            records[1:] -= a2
            records[:-1] += a1
            records[:-1] += a2
        else:
            records[1:] += np.subtract(a1, a2, out=a2)
            np.subtract(a1, records[:-1], out=records[:-1])
    # a digital chunk replays no trial: its indices take its own normals' memory
    # (the other normals buffer may be filling)
    indices = _bin(records, None if params.analog else normals)
    bits = indices[0]
    # indexed: starting an ndarray iterator costs more than a one-record decode's loop
    for record in range(1, len(indices)):
        bits += indices[record]
    bits &= 1
    return bits, records if params.analog else None


def _leaf_likelihoods(records, sigma: float):
    """Per-decode log scale, scaled match and flip likelihoods of every leaf, and per-decode range flag.

    ``records``, binned ``(record, leaf, decode)``, is left as it is, for a
    replay to read; the flip ratios go into the buffer :func:`_bin` takes
    its quotients in, free once binning ends.  The scale moves ``1 + |l0| +
    |l1|`` by some 1e-16 relative, never the sign of ``l1 - l0``.  The flag
    marks decodes with a record outside the bin range, or NaN, which the
    scalar code refuses.
    """
    # sigma * sigma, unlike sigma**2, overflows to inf without raising, so at
    # any sigma the range flag sends a refused record to the scalar's error
    variance = sigma * sigma
    a = np.abs(records, out=_buffer("t", records.shape)).reshape(-1, records.shape[-1])
    outside = ~(np.maximum.reduce(a, axis=0) <= HALF_SQRT_PI)
    scale = np.einsum("ij,ij->j", a, a)
    scale *= -0.5 / variance
    scale -= a.shape[0] * math.log(sigma * math.sqrt(2.0 * math.pi))
    a *= SQRT_PI / variance
    a -= np.pi / (2.0 * variance)
    rho = np.exp(a, out=a).reshape(records.shape)
    even, odd = 1.0, rho[0]
    for record in range(1, len(rho)):
        even, odd = even + odd * rho[record], even * rho[record] + odd
    return scale, even, odd, outside


def _decide(bits, scale, match, flip):
    """First-pair bits of a batch of analog decodes, and which are not sure: the stages in turn.

    Arrays are ``(leaf, row)``, one column per decode, leaves in
    :func:`gkptrack.codes.decode` order, with one log ``scale`` per row.  A
    leaf's likelihoods are ``exp(scale) * match`` that its bit is right and
    ``exp(scale) * flip`` that it is flipped; ``match`` may be the scalar 1.0.
    """
    tables = _c4_tables(bits, match, flip)
    least = 0.0  # log of the product of every level's smallest peak
    while True:
        scale, least = _divide_by_peaks(tables, scale, least)
        if tables.shape[1] == 1:
            return _first_pair(tables, scale, least)
        tables = _fold(tables)


def _c4_tables(bits, match, flip):
    """C4 class sums of every block, ``(class, block, row)``, of the decodes :func:`_decide` takes."""
    rows = bits.shape[1]
    # each leaf's scaled likelihood under a codeword bit of 0, then of 1
    x = np.where(bits == _BIT_VALUES, match, flip)
    # pair products of leaves 1, 2 and of leaves 3, 4 of each C4 block, by
    # codeword bits: (2 * w1 + w2, block, row)
    p12 = (x[:, None, 0::4] * x[None, :, 1::4]).reshape(4, -1, rows)
    p34 = (x[:, None, 2::4] * x[None, :, 3::4]).reshape(4, -1, rows)
    del x
    return np.add.reduce((p12[_C4_LEFT] * p34[_C4_RIGHT]).reshape(4, 2, -1, rows), axis=1)


def _divide_by_peaks(tables, scale, least):
    """Divide tables by their peaks, in place; ``scale`` gains each row's summed log peaks and ``least`` their least."""
    peak = np.maximum.reduce(tables, axis=0)
    log_peak = np.log(peak)
    tables /= peak
    return scale + np.add.reduce(log_peak, axis=0), least + np.minimum.reduce(log_peak, axis=0)


def _fold(tables):
    """The next level's class sums: C6 folds of each three consecutive blocks' ``(class, block, row)`` tables."""
    # the products of the three sub-blocks' entries of each word: (class, word, block, row)
    words = tables[C6_SLOTS[0], 0::3] * tables[C6_SLOTS[1], 1::3] * tables[C6_SLOTS[2], 2::3]
    return np.add.reduce(words.reshape(4, 4, -1, tables.shape[2]), axis=1)


def _first_pair(tables, scale, least):
    """First-pair bits of top ``(class, 1, row)`` tables of log scale ``scale``, and which are not sure."""
    # the first-bit sums t00 + t01 and t10 + t11
    sums = np.add.reduce(tables[:, 0].reshape(2, 2, tables.shape[2]), axis=1)
    l0, l1 = np.log(sums) + scale
    # a sum that underflowed to zero lies below the other, at least 1, by far
    # more than any rounding: a sure decision though its log is -inf
    zero = sums == 0.0
    sure = (np.abs(l1 - l0) > TIE_TOLERANCE * (1.0 + np.abs(l0) + np.abs(l1))) | (zero[0] != zero[1])
    sure &= least >= _LOG_FLOOR
    return l1 > l0, ~sure
