"""Self-contained audio front end.

WAV decoding (PCM 16/24/32-bit and float32, mono or stereo), polyphase
windowed-sinc resampling, a centered Hann STFT, a mel filterbank, and
log-mel features pooled to one vector per recording by a feature-wise mean
over time.

Each stage holds the clip once, plus temporaries of about
``BUFFER_BYTES``.  The decoder mixes blocks of frames straight into the
mono output.  The resampler tabulates its Hann-windowed sinc once per
output phase (L phases for a rate ratio of M / L in lowest terms), keeps
that table and its tap sums per pair of rates, and applies runs of phases
to strided views of the clip itself.  Dividing each output by the sum of
its in-range taps keeps DC gain exactly 1 at the clip edges: inside the
clip that is the phase's tap sum, and only the outputs near either end,
whose windows come from a small zero-padded copy of that end, take the
product with a 0/1 validity mask.  The STFT windows blocks of frames
into one buffer; only the frames that reach past an end come from a
reflect-padded copy of that end.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError

WAVE_FORMAT_PCM = 0x0001
WAVE_FORMAT_IEEE_FLOAT = 0x0003
WAVE_FORMAT_EXTENSIBLE = 0xFFFE

# The front end: every clip is resampled to TARGET_RATE Hz and cut into
# Hann frames of N_FFT samples, one every HOP (431 frames for a 10 s clip),
# whose power goes through N_MELS triangular mel filters.  N_FFT is even,
# so a clip of n samples has 1 + n // HOP frames.
TARGET_RATE = 22050
N_FFT = 2048
HOP = 512
N_MELS = 128
# Part of every feature-cache key; bump it whenever the front end's output
# can change for the same bytes and constants.  2: polyphase resampler.
FRONTEND_VERSION = 2
# Names the feature cache's rows: the sha256 of the front end's constants,
# so a row cached under other constants or another version is never served.
CACHE_KEY = hashlib.sha256(json.dumps(
    {"frontend_version": FRONTEND_VERSION, "hop": HOP, "n_fft": N_FFT,
     "n_mels": N_MELS, "target_rate": TARGET_RATE},
    sort_keys=True).encode("ascii")).hexdigest()[:16]
# Zero crossings per side of the resampler's windowed-sinc kernel.
RESAMPLE_TAPS = 32
# Input a resampler block reads, which stays in cache, and the size of each
# temporary that the decoder, the resampler's edges and the STFT reuse.
# Neither changes a bit of any output.
RESAMPLE_BLOCK_BYTES = 2**20
BUFFER_BYTES = 2**18
# Added to the mel power before the natural log.
LOG_FLOOR = 1e-10
# The 'fmt ' sample rates decode_wav takes, in Hz.  The header's rate sets
# the resampler's output length: a 22.05 kHz target emits 22050 samples per
# sample read at 1 Hz, and at most 22 from 1 kHz up.
MIN_WAV_RATE, MAX_WAV_RATE = 1000, 768000
# The largest resampler kernel table, L phases x taps float64s, that a pair
# of rates may build; a larger one is refused before it is built.  Every
# standard rate needs at most 2.5 MiB (768 -> 22.05 kHz: 147 x 2231), but
# 767999 Hz -> 22.05 kHz would need 22050 x 2231, 375 MiB.
MAX_KERNEL_TABLE_BYTES = 2**25


@dataclass(frozen=True)
class AudioClip:
    """Mono samples (nominally in [-1, 1]) at a fixed rate in Hz."""

    samples: np.ndarray
    rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise InputError(f"clip samples must be 1-D, got {samples.ndim}-D")
        if not self.rate > 0:
            raise InputError(f"sample rate must be positive, got {self.rate}")
        if not np.isfinite(samples).all():
            raise InputError("clip contains non-finite samples")
        object.__setattr__(self, "samples", samples)

    def __len__(self):
        return self.samples.shape[0]

    def duration(self) -> float:
        return len(self) / self.rate


# --------------------------------------------------------------------------
# WAV decoding


def decode_wav(data) -> AudioClip:
    """Decode RIFF/WAVE bytes (any bytes-like object) to a mono clip at its
    native rate.

    Supports PCM 16/24/32-bit and IEEE float32, 1 or 2 channels (averaged
    to mono).  Integer samples are scaled by 1 / 2^(bits-1).  Malformed or
    unsupported containers raise InputError naming the offending chunk.
    """
    if len(data) < 12 or data[:4] != b"RIFF":
        raise InputError("not a RIFF container (missing 'RIFF' chunk)")
    if data[8:12] != b"WAVE":
        raise InputError("RIFF form type is not 'WAVE'")

    # Chunks are read through one view of the buffer: no chunk is copied.
    view = memoryview(data)
    fmt: Optional[dict] = None
    payload: Optional[memoryview] = None
    pos = 12
    while pos + 8 <= len(data):
        cid = view[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = view[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            fmt = _parse_fmt(body)
        elif cid == b"data":
            if len(body) < size:
                raise InputError("truncated 'data' chunk")
            payload = body
        pos += 8 + size + (size & 1)

    if fmt is None:
        raise InputError("missing 'fmt ' chunk")
    if payload is None:
        raise InputError("missing 'data' chunk")

    channels = fmt["channels"]
    bits = fmt["bits"]
    block = channels * (bits // 8)
    if block == 0 or len(payload) % block:
        raise InputError(
            f"'data' chunk size {len(payload)} is not a whole number of "
            f"{block}-byte frames"
        )

    if fmt["format"] == WAVE_FORMAT_PCM:
        if bits not in (16, 24, 32):
            raise InputError(f"unsupported PCM bit depth {bits} in 'fmt ' chunk")
    elif fmt["format"] == WAVE_FORMAT_IEEE_FLOAT:
        if bits != 32:
            raise InputError(f"unsupported float bit depth {bits} in 'fmt ' chunk")
    else:
        raise InputError(
            f"unsupported codec 0x{fmt['format']:04x} in 'fmt ' chunk"
        )
    if channels not in (1, 2):
        raise InputError(f"unsupported channel count {channels} in 'fmt ' chunk")

    mono = np.empty(len(payload) // block)
    if fmt["format"] == WAVE_FORMAT_IEEE_FLOAT:
        _mix(np.frombuffer(payload, dtype="<f4"), 1.0, mono)
    elif len(mono):
        # Little-endian int32 words one sample apart: word i ends where
        # sample i does, so its high bytes are sample i.  With the bytes
        # below cleared, the word is the sample times 2^(32-bits), so / 2^31
        # is the sample / 2^(bits-1) exactly.  The words of samples 1 on are
        # views of the payload; sample 0's needs the 4 - width zero bytes
        # below it, in a copy of one word.
        width = bits // 8
        low = -(1 << (32 - bits))  # clears the bytes below the sample
        first = np.frombuffer(bytes(4 - width) + payload[:width], "<i4") & low
        words = np.ndarray(len(mono) * channels - 1, "<i4", payload,
                           offset=2 * width - 4, strides=(width,))
        step = max(1, BUFFER_BYTES // (4 * channels))  # frames per block
        ints = np.empty(step * channels, np.int32)
        for f0 in range(0, len(mono), step):
            f1 = min(f0 + step, len(mono))
            i0, i1 = f0 * channels, f1 * channels  # samples
            w = ints[: i1 - i0]
            if i0 == 0:
                w[0] = first[0]
                np.bitwise_and(words[: i1 - 1], low, out=w[1:])
            else:
                np.bitwise_and(words[i0 - 1 : i1 - 1], low, out=w)
            _mix(w, 2.0**31, mono[f0:f1])
    return AudioClip(mono, fmt["rate"])


def _mix(samples: np.ndarray, scale: float, out: np.ndarray) -> None:
    # The mono mix of interleaved samples, each divided by scale, into the
    # float64 out.  Mono is samples / scale.  Stereo has the bits of
    # reshape(-1, 2).mean(axis=1) of the scaled samples, and of (left +
    # right) / 2, without a reduction over a length-2 axis (3/4 of a 24-bit
    # stereo decode): the two float32 samples, or int32 words, sum exactly
    # in float64, and the scales are powers of two.
    if out.size == samples.size:
        np.divide(samples, scale, out=out, dtype=np.float64)
    else:
        np.add(samples[0::2], samples[1::2], out=out, dtype=np.float64)
        out /= 2 * scale


def _parse_fmt(body: bytes) -> dict:
    if len(body) < 16:
        raise InputError("truncated 'fmt ' chunk")
    tag, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", body)
    if tag == WAVE_FORMAT_EXTENSIBLE:
        # Effective format is the first two bytes of the SubFormat GUID.
        if len(body) < 26:
            raise InputError("truncated extensible 'fmt ' chunk")
        (tag,) = struct.unpack_from("<H", body, 24)
    if not MIN_WAV_RATE <= rate <= MAX_WAV_RATE:
        raise InputError(f"invalid sample rate {rate} in 'fmt ' chunk; expected "
                         f"{MIN_WAV_RATE} to {MAX_WAV_RATE} Hz")
    return {"format": tag, "channels": channels, "rate": rate, "bits": bits}


# --------------------------------------------------------------------------
# Resampling


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Band-limited rate conversion by polyphase windowed-sinc interpolation.

    Output length is round(len * target / native).  The kernel is a
    Hann-windowed sinc with ``RESAMPLE_TAPS`` zero crossings per side,
    widened and scaled by the rate ratio when downsampling.  With native /
    target = M / L in lowest terms, output k = r * L + p sits at input
    position k * M / L, so its fractional offset depends only on the phase
    p: the kernel is tabulated once per phase, from the exact offset
    (p * M mod L) / L.  Output k's window starts r * M + p * M // L - radius
    into the clip, so a run of phases whose offsets p * M // L are evenly
    spaced is one 3-D strided view of the clip, and one matrix-vector
    product per row.  The outputs are taken period by period in blocks of
    about ``RESAMPLE_BLOCK_BYTES`` of input that stay in cache.  Each
    output is divided by the sum of its in-range taps, which keeps DC gain
    exactly 1 even at the edges.  Inside the clip that is the phase's whole
    tap sum.  The outputs of the periods whose windows do not all lie in
    the clip (about radius * L / M + L at each end) read their windows from
    a zero-padded copy of that end and take the product with a 0/1
    validity mask, in a few batched calls.  A pair of rates whose whole
    table would pass ``MAX_KERNEL_TABLE_BYTES`` raises InputError before
    anything is allocated.
    """
    if target_rate <= 0:
        raise InputError(f"target rate must be positive, got {target_rate}")
    native = clip.rate
    if target_rate == native:
        return AudioClip(clip.samples.copy(), native)
    g = math.gcd(native, target_rate)
    step, n_phases = native // g, target_rate // g  # M, L
    table = 8 * n_phases * (2 * _kernel_radius(native, target_rate) + 1)
    if table > MAX_KERNEL_TABLE_BYTES:
        raise InputError(
            f"cannot resample {native} Hz to {target_rate} Hz: its kernel "
            f"table of {n_phases} phases needs {table} bytes, more than "
            f"{MAX_KERNEL_TABLE_BYTES}")
    x = clip.samples
    n_in = len(x)
    n_out = (2 * n_in * target_rate + native) // (2 * native)  # round half up
    if n_in == 0 or n_out == 0:
        return AudioClip(np.zeros(0), target_rate)

    h, tap_sum = _phase_kernels(native, target_rate, min(n_phases, n_out))
    width = h.shape[1]
    radius = width // 2
    out = np.empty(n_out)

    # Periods first .. end - 1 are whole periods of L outputs whose windows
    # all lie in the clip: phase 0's starts in it, and phase L - 1's ends in
    # it.  With two or more of them, every product below has two rows or
    # more: einsum sums a lone row of more than 8192 taps in other chunks
    # than it sums two.  Otherwise every output is an edge output.
    first = -(-radius // step)
    last_offset = (n_phases - 1) * step // n_phases
    end = min(n_out // n_phases, (n_in - width + radius - last_offset) // step + 1)
    if end - first >= 2:
        edges = [(0, first * n_phases), (end * n_phases, n_out)]
        periods = max(2, RESAMPLE_BLOCK_BYTES // (8 * step))  # per block
        n_blocks = max(1, (end - first) // periods)
    else:
        edges, n_blocks = [(0, n_out)], 0
    stride = x.strides[0]
    for b in range(n_blocks):
        r0 = first + b * periods
        r1 = end if b == n_blocks - 1 else r0 + periods
        block = out[r0 * n_phases : r1 * n_phases].reshape(r1 - r0, n_phases)
        for p0, p1, spacing in _phase_runs(step, n_phases):
            # Row i of phase p0 + j: the window of output (r0 + i) * L + p0
            # + j.  einsum runs a SIMD loop on these strided rows; matmul
            # cannot hand them to BLAS (row stride < width) and is about
            # 2.5x slower.
            start = r0 * step + p0 * step // n_phases - radius
            rows = np.lib.stride_tricks.as_strided(
                x[start:], (p1 - p0, r1 - r0, width),
                (spacing * stride, step * stride, stride), writeable=False)
            np.einsum("pij,pj->pi", rows, h[p0:p1], out=block.T[p0:p1])
        block /= tap_sum

    # The edge outputs, as signal and mask products over windows of a
    # zero-padded copy of the stretch of input they read: window i covers
    # input samples i - radius .. i + radius.  Every product here, the tap
    # sums' too, has two rows.
    taps = np.arange(width)
    batch = max(1, BUFFER_BYTES // (16 * width))
    for k0, k1 in edges:
        if k0 == k1:
            continue
        lo = k0 * step // n_phases  # the first window
        hi = (k1 - 1) * step // n_phases + width  # past the last one's end
        padded = np.zeros(hi - lo)
        a, b = max(lo - radius, 0), min(hi - radius, n_in)
        padded[a + radius - lo : b + radius - lo] = x[a:b]
        windows = np.lib.stride_tricks.sliding_window_view(padded, width)
        for b0 in range(k0, k1, batch):
            k = np.arange(b0, min(b0 + batch, k1))
            start = k * step // n_phases
            both = np.empty((2, len(k), width))
            both[0] = windows[start - lo]
            inside = (radius - start)[:, np.newaxis]  # first in-range tap
            both[1] = (taps >= inside) & (taps < inside + n_in)
            signal, mask = np.einsum("sij,ij->si", both, h[k % n_phases])
            signal /= mask
            out[k] = signal
    return AudioClip(out, target_rate)


@functools.lru_cache(maxsize=8)
def _phase_runs(step: int, n_phases: int) -> tuple:
    # The phases 0 .. L - 1 as runs (p0, p1, spacing) of consecutive phases
    # whose window offsets p * M // L are spaced ``spacing`` apart: about
    # L / 5.6 runs at 48 -> 22.05 kHz.  Each run is one strided view.
    offset = [p * step // n_phases for p in range(n_phases)]
    runs, p0 = [], 0
    while p0 < n_phases:
        p1 = min(p0 + 2, n_phases)
        spacing = offset[p1 - 1] - offset[p0]
        while p1 < n_phases and offset[p1] - offset[p1 - 1] == spacing:
            p1 += 1
        runs.append((p0, p1, spacing))
        p0 = p1
    return tuple(runs)


def _kernel_radius(native: int, target_rate: int) -> int:
    # Taps per side: RESAMPLE_TAPS zero crossings of the sinc, widened by
    # the rate ratio when downsampling.
    return int(np.ceil(RESAMPLE_TAPS / min(1.0, target_rate / native)))


@functools.lru_cache(maxsize=8)
def _phase_kernels(native: int, target_rate: int,
                   phases: int) -> tuple[np.ndarray, np.ndarray]:
    # The first ``phases`` rows of the kernel table for native -> target and
    # their tap sums: what every clip at that pair of rates reads, so each
    # is built once, cached and shared, read-only.  A clip of at least L
    # outputs reads all L phases; a shorter one reads its n_out.  The rows
    # are built in place, in blocks of about BUFFER_BYTES, so the build
    # holds the table and a few block-sized temporaries.
    g = math.gcd(native, target_rate)
    step, n_phases = native // g, target_rate // g
    cutoff = min(1.0, target_rate / native)  # fraction of the input Nyquist
    radius = _kernel_radius(native, target_rate)
    width = 2 * radius + 1
    frac = (np.arange(phases) * step % n_phases) / n_phases
    taps = np.arange(-radius, radius + 1)
    h = np.empty((phases, width))
    tap_sum = np.empty(phases)
    rows = min(phases, max(1, BUFFER_BYTES // (8 * width)))
    offset = np.empty((rows, width))
    # Each phase's tap sum is its product with an all-ones window, in the
    # edges' two-row form.
    ones = np.ones((2, rows, width))
    for r0 in range(0, phases, rows):
        r1 = min(r0 + rows, phases)
        x = np.subtract(taps, frac[r0:r1, np.newaxis], out=offset[: r1 - r0])
        block = np.multiply(cutoff, np.sinc(cutoff * x), out=h[r0:r1])
        block *= np.where(
            np.abs(x) <= radius,
            0.5 + 0.5 * np.cos(np.pi * x / radius),
            0.0,
        )
        tap_sum[r0:r1] = np.einsum("sij,ij->si", ones[:, : r1 - r0], block)[0]
    h.flags.writeable = False
    tap_sum.flags.writeable = False
    return h, tap_sum


# --------------------------------------------------------------------------
# STFT and mel features


def stft_power(clip: AudioClip) -> np.ndarray:
    """Power spectrogram, shape (frames, N_FFT // 2 + 1).

    Frames are Hann-windowed and centered via reflect padding, one every
    ``HOP`` samples; the frame count is 1 + len // HOP.  Frames are
    windowed in blocks of about ``BUFFER_BYTES`` into one buffer, and each
    block's magnitudes go straight into the result.  The frames inside the
    clip are views of it; only those that reach past an end come from a
    reflect-padded copy of that end.
    """
    if clip.rate != TARGET_RATE:
        raise InputError(
            f"clip rate {clip.rate} does not match the front end's rate "
            f"{TARGET_RATE}; resample first"
        )
    n = len(clip)
    if n == 0:
        raise InputError("cannot compute an STFT of an empty clip")
    n_frames = 1 + n // HOP  # those that fit in the clip padded by N_FFT / 2
    # The periodic (DFT-even) Hann window.
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(N_FFT) / N_FFT)
    power = np.empty((n_frames, N_FFT // 2 + 1))
    step = max(1, BUFFER_BYTES // (8 * N_FFT))  # frames per block
    buf = np.empty((min(step, n_frames), N_FFT))
    for t0, frames in _frame_runs(clip.samples, n_frames, N_FFT, HOP):
        for a in range(0, len(frames), step):
            block = frames[a : a + step]
            windowed = np.multiply(block, window, out=buf[: len(block)])
            # rfft transforms each row alone, so a block has the bits of the
            # whole; numpy 1.24's rfft takes no out=.
            np.abs(np.fft.rfft(windowed, axis=1),
                   out=power[t0 + a : t0 + a + len(block)])
    return np.square(power, out=power)  # the bits of ** 2


def _frame_runs(x: np.ndarray, n_frames: int, n_fft: int, hop: int):
    # Yields (t0, frames): frames t0, t0 + 1, ... of x reflect-padded by
    # pad = n_fft // 2 at each end, as the rows of a sliding view.  Frame t
    # covers x[t * hop - pad : t * hop - pad + n_fft], reflected past either
    # end.  A padded end reflects pad samples next to it, so a copy of the
    # frames' stretch of x, padded, holds them when it has pad + 1 samples.
    pad = n_fft // 2
    n = len(x)
    inside = -(-pad // hop)  # the first frame that starts in the clip
    outside = (n + pad - n_fft) // hop + 1  # the first that ends past it
    if outside <= inside:  # no frame lies inside: the clip is short
        padded = np.pad(x, pad, mode="reflect")
        yield 0, np.lib.stride_tricks.sliding_window_view(
            padded, n_fft)[::hop][:n_frames]
        return
    head = np.pad(x[: max(pad + 1, (inside - 1) * hop + n_fft - pad)],
                  (pad, 0), mode="reflect")
    yield 0, np.lib.stride_tricks.sliding_window_view(
        head, n_fft)[::hop][:inside]
    yield inside, np.lib.stride_tricks.sliding_window_view(
        x, n_fft)[inside * hop - pad :: hop][: outside - inside]
    start = min(outside * hop - pad, n - pad - 1)
    tail = np.pad(x[start:], (0, pad), mode="reflect")
    yield outside, np.lib.stride_tricks.sliding_window_view(
        tail, n_fft)[outside * hop - pad - start :: hop][: n_frames - outside]


# Slaney's mel scale: linear below 1 kHz, logarithmic above.
_MEL_F_SP = 200.0 / 3.0
_MEL_MIN_LOG_HZ = 1000.0
_MEL_MIN_LOG_MEL = _MEL_MIN_LOG_HZ / _MEL_F_SP
_MEL_LOGSTEP = np.log(6.4) / 27.0


def hz_to_mel(freq) -> np.ndarray:
    f = np.asarray(freq, dtype=np.float64)
    return np.where(
        f < _MEL_MIN_LOG_HZ,
        f / _MEL_F_SP,
        _MEL_MIN_LOG_MEL
        + np.log(np.maximum(f, _MEL_MIN_LOG_HZ) / _MEL_MIN_LOG_HZ) / _MEL_LOGSTEP,
    )


def mel_to_hz(mel) -> np.ndarray:
    m = np.asarray(mel, dtype=np.float64)
    return np.where(
        m < _MEL_MIN_LOG_MEL,
        _MEL_F_SP * m,
        _MEL_MIN_LOG_HZ
        * np.exp(_MEL_LOGSTEP * (np.maximum(m, _MEL_MIN_LOG_MEL) - _MEL_MIN_LOG_MEL)),
    )


def _mel_breakpoints() -> np.ndarray:
    mels = np.linspace(hz_to_mel(0.0), hz_to_mel(TARGET_RATE / 2), N_MELS + 2)
    return mel_to_hz(mels)


def mel_center_frequencies() -> np.ndarray:
    """Center frequency in Hz of each triangular filter."""
    return _mel_breakpoints()[1:-1]


@functools.cache
def mel_filterbank() -> np.ndarray:
    """Triangular filters, shape (N_MELS, N_FFT // 2 + 1).

    Centers are equally spaced on the mel scale between 0 Hz and
    ``TARGET_RATE / 2``; each filter is divided by its bandwidth in Hz so
    wide filters do not dominate, and each covers at least one FFT bin.
    The array is built once, cached and shared: it is read-only.
    """
    pts = _mel_breakpoints()
    fft_freqs = np.arange(N_FFT // 2 + 1) * (TARGET_RATE / N_FFT)
    lower = pts[:-2]
    center = pts[1:-1]
    upper = pts[2:]
    tiny = np.finfo(np.float64).tiny
    # The rising slopes go into the result and the falling ones into the
    # one temporary: each filter is max(0, min(up, down)) / bandwidth.
    weights = np.subtract(fft_freqs[np.newaxis, :], lower[:, np.newaxis])
    weights /= np.maximum(center - lower, tiny)[:, np.newaxis]
    down = np.subtract(upper[:, np.newaxis], fft_freqs[np.newaxis, :])
    down /= np.maximum(upper - center, tiny)[:, np.newaxis]
    np.minimum(weights, down, out=weights)
    del down
    np.maximum(0.0, weights, out=weights)
    weights /= (upper - lower)[:, np.newaxis]
    weights.flags.writeable = False
    return weights


def mel_power(clip: AudioClip) -> np.ndarray:
    """Mel-band power per frame, shape (N_MELS, frames).  Pre-log."""
    power = stft_power(clip)
    return mel_filterbank() @ power.T


def log_mel_mean(clip: AudioClip) -> np.ndarray:
    """One feature vector per recording: log mel power averaged over frames."""
    mel = mel_power(clip)
    mel += LOG_FLOOR
    np.log(mel, out=mel)
    return mel.mean(axis=1)


def extract_features(data: bytes) -> np.ndarray:
    """Decode, resample to ``TARGET_RATE``, and pool to one vector."""
    clip = decode_wav(data)
    if clip.rate != TARGET_RATE:  # a clip at the rate is used as it is
        clip = resample(clip, TARGET_RATE)
    return log_mel_mean(clip)
