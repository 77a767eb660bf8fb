import hashlib
import json
import math
import struct
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenevat import audio
from scenevat.audio import (
    HOP,
    LOG_FLOOR,
    N_FFT,
    TARGET_RATE,
    AudioClip,
    decode_wav,
    extract_features,
    hz_to_mel,
    log_mel_mean,
    mel_center_frequencies,
    mel_filterbank,
    mel_power,
    mel_to_hz,
    resample,
    stft_power,
)
from scenevat.errors import InputError

from conftest import make_wav, sine, sine_wav


# --------------------------------------------------------------------------
# decoding


def test_decode_silence_length_and_rate():
    clip = decode_wav(make_wav(np.zeros(22050, dtype=np.int64), 22050))
    assert clip.rate == 22050
    assert len(clip) == 22050
    assert not clip.samples.any()


def test_decode_16bit_scaling():
    clip = decode_wav(make_wav([16384, -32768, 32767], 8000))
    assert clip.samples[0] == pytest.approx(0.5)
    assert clip.samples[1] == pytest.approx(-1.0)
    assert clip.samples[2] == pytest.approx(32767 / 32768)


def test_decode_24bit_stereo_averages_to_mono():
    frames = np.array([[2097152, 4194304]])  # 0.25 and 0.5 full scale
    clip = decode_wav(make_wav(frames, 44100, bits=24))
    assert clip.samples.tolist() == [0.375]


def test_decode_24bit_negative():
    clip = decode_wav(make_wav([-4194304], 8000, bits=24))
    assert clip.samples.tolist() == [-0.5]


def test_decode_32bit_pcm():
    clip = decode_wav(make_wav([2**30, -(2**31)], 8000, bits=32))
    assert clip.samples.tolist() == [0.5, -1.0]


@settings(max_examples=60, deadline=None)
@given(bits=st.sampled_from([16, 24, 32]), channels=st.sampled_from([1, 2]),
       extensible=st.booleans(), frames=st.integers(0, 50),
       seed=st.integers(0, 2**32 - 1))
def test_decode_pcm_is_words_over_full_scale_bitwise(bits, channels, extensible,
                                                     frames, seed):
    # Every depth reads a word w as w / 2^(bits-1) exactly; both extreme
    # words are always among the frames.
    lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    rng = np.random.Generator(np.random.Philox(key=seed))
    words = rng.integers(lo, hi, size=(frames + 2, channels), endpoint=True)
    words[0], words[1] = lo, hi
    clip = decode_wav(make_wav(words, 8000, bits=bits, extensible=extensible))
    expected = words / 2.0 ** (bits - 1)
    expected = expected[:, 0] if channels == 1 else expected.mean(axis=1)
    assert clip.samples.tobytes() == expected.tobytes()


@pytest.mark.parametrize("bits", [16, 24, 32])
def test_decode_stereo_mix_is_the_frame_mean_bitwise(bits):
    # The mix of each frame has the bits of the mean over its two samples.
    lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    rng = np.random.Generator(np.random.Philox(key=bits))
    words = rng.integers(lo, hi, size=(4000, 2), endpoint=True)
    words[:4] = [[lo, hi], [hi, hi], [lo, lo], [hi, lo]]
    clip = decode_wav(make_wav(words, 8000, bits=bits))
    samples = (words / 2.0 ** (bits - 1)).reshape(-1)
    assert clip.samples.tobytes() == samples.reshape(-1, 2).mean(axis=1).tobytes()


@pytest.mark.parametrize("bits", [16, 24, 32])
@pytest.mark.parametrize("channels", [1, 2])
def test_decode_pcm_across_blocks_bitwise(bits, channels):
    # Frame counts one either side of a decode block, and past two blocks:
    # each block reads its words from the payload, and sample 0 its own.
    step = audio.BUFFER_BYTES // (4 * channels)  # frames per block
    lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    rng = np.random.Generator(np.random.Philox(key=bits * channels))
    for frames in (step - 1, step, step + 1, 2 * step + 1):
        words = rng.integers(lo, hi, size=(frames, channels), endpoint=True)
        words[0] = lo
        clip = decode_wav(make_wav(words, 8000, bits=bits))
        expected = words / 2.0 ** (bits - 1)
        expected = expected[:, 0] if channels == 1 else expected.mean(axis=1)
        assert clip.samples.tobytes() == expected.tobytes()


def test_decode_float32():
    clip = decode_wav(make_wav([0.5, -0.25], 8000, bits=32, float_fmt=True))
    assert clip.samples.tolist() == [0.5, -0.25]


def test_decode_extensible_matches_plain():
    plain = decode_wav(make_wav([1000, -2000], 8000))
    ext = decode_wav(make_wav([1000, -2000], 8000, extensible=True))
    assert np.array_equal(plain.samples, ext.samples)


def test_decode_skips_unknown_chunks():
    wav = make_wav([123], 8000, extra_chunk=(b"LIST", b"INFOxyz"))
    assert decode_wav(wav).samples.tolist() == [123 / 32768]


def test_decode_odd_data_chunk_is_padded():
    # one 24-bit mono sample -> 3 payload bytes, pad byte follows
    clip = decode_wav(make_wav([1], 8000, bits=24))
    assert len(clip) == 1


def test_decode_rejects_non_riff():
    with pytest.raises(InputError, match="RIFF"):
        decode_wav(b"OggS" + b"\x00" * 40)


def test_decode_rejects_truncated_data():
    wav = make_wav(np.arange(100), 8000)
    with pytest.raises(InputError, match="data"):
        decode_wav(wav[:-30])


def test_decode_rejects_missing_data_chunk():
    wav = make_wav([1], 8000)
    with pytest.raises(InputError, match="'data'"):
        decode_wav(wav[:36])  # RIFF header + fmt chunk only


def test_decode_takes_rates_from_1_to_768_khz():
    # The header's rate sets the resampler's output length.
    for rate in (1000, 22050, 44100, 48000, 768000):
        assert decode_wav(make_wav([1], rate)).rate == rate
    for rate in (1, 999, 768001):
        with pytest.raises(InputError, match=f"invalid sample rate {rate} in"):
            decode_wav(make_wav([1], rate))


def test_decode_rejects_unknown_codec():
    wav = bytearray(make_wav([1], 8000))
    wav[20:22] = struct.pack("<H", 0x0055)  # format tag inside 'fmt '
    with pytest.raises(InputError, match="codec 0x0055"):
        decode_wav(bytes(wav))


def test_decode_rejects_three_channels():
    wav = make_wav(np.zeros((4, 3), dtype=np.int64), 8000)
    with pytest.raises(InputError, match="channel count 3"):
        decode_wav(wav)


def test_decode_rejects_ragged_payload():
    wav = bytearray(make_wav([1, 2], 8000))
    # shrink the declared data size to 3 bytes: not a whole 2-byte frame
    wav[40:44] = struct.pack("<I", 3)
    with pytest.raises(InputError, match="whole number"):
        decode_wav(bytes(wav[:44] + wav[44:47]))


# --------------------------------------------------------------------------
# resampling


def test_resample_same_rate_is_identity():
    x = sine(500.0, 0.1, 8000)
    out = resample(AudioClip(x, 8000), 8000)
    assert np.array_equal(out.samples, x)
    assert out.samples is not x


def test_resample_dc_gain_is_one():
    out = resample(AudioClip(np.ones(48000), 48000), 22050)
    assert np.abs(out.samples - 1.0).max() <= 1e-12


def test_resample_output_length_rounds_half_up():
    assert len(resample(AudioClip(np.zeros(3), 44100), 22050)) == 2
    # 3 * (1/2) = 1.5 rounds up
    assert len(resample(AudioClip(np.zeros(3), 2), 1)) == 2
    assert len(resample(AudioClip(np.zeros(480000), 48000), 22050)) == 220500


def test_resample_tone_tracks_ideal():
    x = sine(1000.0, 2.0, 48000)
    y = resample(AudioClip(x, 48000), 22050).samples
    ref = sine(1000.0, 2.0, 22050)
    n = min(len(y), len(ref))
    y, ref = y[200 : n - 200], ref[200 : n - 200]
    corr = np.dot(y, ref) / np.sqrt(np.dot(y, y) * np.dot(ref, ref))
    assert corr >= 0.999


def test_resample_empty_and_bad_rate():
    out = resample(AudioClip(np.zeros(0), 8000), 4000)
    assert len(out) == 0 and out.rate == 4000
    with pytest.raises(InputError):
        resample(AudioClip(np.zeros(4), 8000), 0)


def test_resample_refuses_a_kernel_table_past_the_bound():
    # 767999 -> 22050 Hz has 22050 phases of 2231 taps: 375 MiB, and about
    # five times that while it is built.  These 100 samples read three rows.
    wav = make_wav(np.zeros(100, dtype=np.int64), 767999)
    with pytest.raises(InputError, match="cannot resample 767999 Hz to 22050 Hz"):
        extract_features(wav)


@pytest.mark.parametrize("rate", [8000, 11025, 16000, 22050, 24000, 32000,
                                  44100, 48000, 88200, 96000, 176400, 192000,
                                  352800, 384000, 705600, 768000])
def test_every_standard_rate_extracts(rate):
    feats = extract_features(sine_wav(440.0, 0.1, rate))
    assert feats.shape == (128,) and np.isfinite(feats).all()


def _resample_per_sample(clip, target_rate, taps=32, chunk=4096):
    """Reference: the windowed-sinc kernel evaluated anew for every output."""
    native = clip.rate
    x = clip.samples
    n_in = len(x)
    n_out = (2 * n_in * target_rate + native) // (2 * native)
    cutoff = min(1.0, target_rate / native)
    radius = int(np.ceil(taps / cutoff))
    rel = np.arange(-radius, radius + 1)
    out = np.empty(n_out)
    for c0 in range(0, n_out, chunk):
        center = np.arange(c0, min(c0 + chunk, n_out)) * (native / target_rate)
        idx = np.floor(center).astype(np.int64)[:, None] + rel[None, :]
        offset = idx - center[:, None]
        h = cutoff * np.sinc(cutoff * offset)
        h *= np.where(
            np.abs(offset) <= radius,
            0.5 + 0.5 * np.cos(np.pi * offset / radius),
            0.0,
        )
        h *= (idx >= 0) & (idx < n_in)
        gathered = x[np.clip(idx, 0, n_in - 1)]
        out[c0 : c0 + len(center)] = (gathered * h).sum(axis=1) / h.sum(axis=1)
    return out


def _white_noise(n, seed):
    return np.random.default_rng(seed).standard_normal(n)


@pytest.mark.parametrize("native,target", [(44100, 22050), (22050, 44100)])
def test_resample_matches_per_sample_kernel_exact_phase(native, target):
    # one or two phases whose offsets (0, 1/2) are exact in floating point
    x = _white_noise(2 * native, seed=native)
    got = resample(AudioClip(x, native), target).samples
    ref = _resample_per_sample(AudioClip(x, native), target)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("native,target", [(48000, 22050), (8000, 48000)])
def test_resample_matches_per_sample_kernel_many_phases(native, target):
    # the reference rounds k * native / target; the phase table is exact
    x = _white_noise(10 * native, seed=native)
    got = resample(AudioClip(x, native), target).samples
    ref = _resample_per_sample(AudioClip(x, native), target)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()


@pytest.mark.parametrize("n_in", [1, 2, 3, 5, 100])
@pytest.mark.parametrize(
    "native,target", [(44100, 22050), (48000, 22050), (8000, 48000)]
)
def test_resample_matches_per_sample_kernel_at_edges(n_in, native, target):
    # inputs shorter than the kernel radius: every output is an edge output
    x = _white_noise(n_in, seed=n_in)
    got = resample(AudioClip(x, native), target).samples
    ref = _resample_per_sample(AudioClip(x, native), target)
    assert got.shape == ref.shape
    if ref.size:
        assert np.abs(got - ref).max() <= 1e-9 * np.abs(ref).max()


def _resample_two_row(clip, target_rate, taps=32):
    """Reference: the earlier resampler, which took every window's product
    with the signal and with a 0/1 validity mask in one two-row einsum."""
    native = clip.rate
    if target_rate == native:
        return clip.samples.copy()
    x = clip.samples
    n_in = len(x)
    n_out = (2 * n_in * target_rate + native) // (2 * native)  # round half up
    if n_in == 0 or n_out == 0:
        return np.zeros(0)

    g = math.gcd(native, target_rate)
    step, n_phases = native // g, target_rate // g  # M, L
    cutoff = min(1.0, target_rate / native)  # fraction of the input Nyquist
    radius = int(np.ceil(taps / cutoff))
    width = 2 * radius + 1

    phase = np.arange(min(n_phases, n_out))
    frac = (phase * step % n_phases) / n_phases
    offset = np.arange(-radius, radius + 1)[np.newaxis, :] - frac[:, np.newaxis]
    h = cutoff * np.sinc(cutoff * offset)
    h *= np.where(
        np.abs(offset) <= radius,
        0.5 + 0.5 * np.cos(np.pi * offset / radius),
        0.0,
    )

    # Row 0 is the signal, row 1 its validity mask; window i of either covers
    # input samples i - radius .. i + radius, zero outside the clip.
    last = (n_out - 1) * step // n_phases  # window index of the last output
    padded = np.zeros((2, radius + max(n_in, last + radius + 1)))
    padded[0, radius : radius + n_in] = x
    padded[1, radius : radius + n_in] = 1.0
    windows = np.lib.stride_tricks.sliding_window_view(padded, width, axis=1)

    acc = np.empty((2, n_out))
    for p in range(len(h)):
        count = (n_out - 1 - p) // n_phases + 1
        rows = windows[:, p * step // n_phases :: step][:, :count]
        # einsum runs a SIMD loop on these strided rows; matmul cannot hand
        # them to BLAS (row stride < width) and is about 2.5x slower.
        acc[:, p::n_phases] = np.einsum("sij,j->si", rows, h[p])
    return acc[0] / acc[1]


_NATIVE_RATES = [8000, 11025, 16000, 22050, 32000, 44100, 48000, 96000]
_TARGET_RATES = [16000, 22050, 44100]


def _kernel_width(native, target):
    return 2 * int(np.ceil(32 / min(1.0, target / native))) + 1


@settings(max_examples=150, deadline=None)
@given(native=st.sampled_from(_NATIVE_RATES), target=st.sampled_from(_TARGET_RATES),
       data=st.data())
def test_resample_keeps_the_two_row_bits(native, target, data):
    # From one sample (every output an edge output, n_out < L) to three
    # kernel widths (interior outputs between the edges).
    n = data.draw(st.integers(1, 3 * _kernel_width(native, target)), label="n")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    clip = AudioClip(_white_noise(n, seed), native)
    got = resample(clip, target).samples
    assert got.tobytes() == _resample_two_row(clip, target).tobytes()


@pytest.mark.parametrize("native,target,n", [
    # Kernels past 8192 taps, where einsum sums a lone row in other chunks
    # than two: a phase's lone output, and L = 1's tap sum, must not be one.
    (16000, 3, 1), (16000, 3, 200000), (16000, 3, 1000000),  # 341k taps
    (1000, 5, 300), (1000, 5, 22701), (1000, 5, 38175),  # 12.8k taps, L = 1
    (48000, 7, 60000), (44100, 22050, 3), (22050, 44100, 1),
    (60010, 400, 11252),  # 9603 taps, L = 40: interior outputs in lone rows
    # Clips of several blocks of phases, the last one longer.
    (48000, 22050, 480000), (44100, 22050, 441000), (8000, 44100, 140000),
])
def test_resample_keeps_the_two_row_bits_for_long_kernels_and_clips(native, target, n):
    clip = AudioClip(_white_noise(n, n), native)
    got = resample(clip, target).samples
    assert got.tobytes() == _resample_two_row(clip, target).tobytes()


def test_resample_kernel_table_is_cached_read_only():
    resample(AudioClip(_white_noise(48000, 1), 48000), 22050)
    h, tap_sum = audio._phase_kernels(48000, 22050, 147)
    assert h.shape == (147, _kernel_width(48000, 22050)) and tap_sum.shape == (147,)
    resample(AudioClip(_white_noise(48000, 2), 48000), 22050)
    again = audio._phase_kernels(48000, 22050, 147)
    assert again[0] is h and again[1] is tap_sum
    for table in (h, tap_sum):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0


def test_resample_phase_runs_cover_every_phase_evenly_spaced():
    for step, n_phases in [(320, 147), (147, 160), (160, 882), (6001, 40),
                           (2, 1), (3, 2)]:
        runs = audio._phase_runs(step, n_phases)
        assert [p for p0, p1, _ in runs for p in range(p0, p1)] == list(range(n_phases))
        for p0, p1, spacing in runs:
            offsets = [p * step // n_phases for p in range(p0, p1)]
            assert offsets == [offsets[0] + spacing * i for i in range(p1 - p0)]
    # 48 -> 22.05 kHz: 26 products per block, not one per phase.
    assert len(audio._phase_runs(320, 147)) == 26


@pytest.mark.parametrize("native,target", [(48000, 22050), (44100, 16000),
                                           (60010, 400), (1000, 5)])
def test_resample_keeps_the_two_row_bits_at_period_and_block_bounds(native, target):
    # Clips whose whole periods inside the clip number 1 (every output an
    # edge output), 2, 3 and one either side of a block of them, each with
    # and without a period's worth of input to spare.  1000 -> 5 Hz has one
    # phase of 12801 taps: a product of one row there, as one period would
    # give, would change the bits.
    g = math.gcd(native, target)
    step, n_phases = native // g, target // g
    width = _kernel_width(native, target)
    radius = width // 2
    first = -(-radius // step)
    last_offset = (n_phases - 1) * step // n_phases
    periods = max(2, audio.RESAMPLE_BLOCK_BYTES // (8 * step))
    for inside in (1, 2, 3, periods - 1, periods, periods + 1, 2 * periods + 1):
        n = (first + inside - 1) * step + width - radius + last_offset
        for extra in (0, step - 1):
            clip = AudioClip(_white_noise(n + extra, n + extra), native)
            got = resample(clip, target).samples
            assert got.tobytes() == _resample_two_row(clip, target).tobytes()


# --------------------------------------------------------------------------
# STFT


def test_stft_frame_count_ten_seconds():
    clip = AudioClip(np.zeros(220500), 22050)
    p = stft_power(clip)
    assert p.shape == (431, 1025)
    assert not p.any()


def test_stft_tone_lands_in_expected_bin():
    clip = AudioClip(sine(440.0, 10.0, 22050), 22050)
    p = stft_power(clip)
    # 440 * 2048 / 22050 = 40.87 -> bin 41; the first and last frame are
    # excluded because reflect padding folds the waveform back on itself
    # there and smears the peak by one bin
    bins = p[1:-1].argmax(axis=1)
    assert np.unique(bins).tolist() == [41]


def test_stft_rate_mismatch_rejected():
    with pytest.raises(InputError, match="resample"):
        stft_power(AudioClip(np.zeros(100), 44100))


def test_stft_empty_clip_rejected():
    with pytest.raises(InputError):
        stft_power(AudioClip(np.zeros(0), 22050))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=8 * N_FFT))
def test_stft_frame_count_law(n):
    p = stft_power(AudioClip(np.zeros(n), TARGET_RATE))
    assert p.shape == (1 + n // HOP, N_FFT // 2 + 1)


def test_stft_frame_energy_matches_time_domain():
    # Parseval on one interior frame: rfft power folded back to a full
    # spectrum must equal the windowed segment energy exactly
    rng = np.random.Generator(np.random.Philox(key=7))
    x = rng.normal(size=8000)
    p = stft_power(AudioClip(x, TARGET_RATE))
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(N_FFT) / N_FFT)
    padded = np.pad(x, N_FFT // 2, mode="reflect")
    t = 5
    seg = padded[t * HOP : t * HOP + N_FFT] * win
    spectral = (p[t, 0] + p[t, -1] + 2.0 * p[t, 1:-1].sum()) / N_FFT
    assert spectral == pytest.approx((seg**2).sum(), rel=1e-9)


def _reference_frames(x, n_fft, hop):
    """Every frame of the whole clip reflect-padded, as the STFT framed it."""
    padded = np.pad(x, n_fft // 2, mode="reflect")
    frames = np.lib.stride_tricks.sliding_window_view(padded, n_fft)
    return frames[::hop][: 1 + len(x) // hop]


def _frame_lengths(n_fft, hop):
    """Clip lengths shorter than n_fft / 2 (reflected more than once), about
    n_fft long, and with frame counts, all or inside the clip, one either
    side of an STFT block."""
    step = audio.BUFFER_BYTES // (8 * n_fft)  # frames per block
    pad = n_fft // 2
    lengths = {1, 2, pad - 1, pad, pad + 1, n_fft - 1, n_fft, n_fft + 1}
    for frames in (step - 1, step, step + 1, 2 * step + 1):
        lengths |= {(frames - 1) * hop, frames * hop - 1}  # 1 + len // hop
        last = frames + -(-pad // hop) - 1  # the last of `frames` inside
        lengths |= {last * hop + n_fft - pad, last * hop + n_fft - pad + hop - 1}
    return sorted(length for length in lengths if length >= 1)


def test_stft_keeps_the_reference_bits():
    # The STFT as it was: the reference frames windowed and transformed at
    # once.  The lengths reach both of _frame_runs's layouts: no frame
    # inside the clip, and the frames inside it between a padded head and
    # tail.
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(N_FFT) / N_FFT)
    rng = np.random.Generator(np.random.Philox(key=N_FFT + HOP))
    for n in _frame_lengths(N_FFT, HOP):
        x = rng.normal(size=n)
        got = stft_power(AudioClip(x, TARGET_RATE))
        want = np.abs(np.fft.rfft(_reference_frames(x, N_FFT, HOP) * window,
                                  axis=1)) ** 2
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), n


@pytest.mark.parametrize("n_fft,hop", [(16, 5), (18, 4), (64, 64), (2, 1)])
def test_frame_runs_keep_the_reference_frames(n_fft, hop):
    # _frame_runs takes any even n_fft and hop <= n_fft.  Where hop is large
    # against n_fft / 2, the head takes its pad + 1 samples and the tail
    # starts pad + 1 from the end, which the front end's constants never
    # reach.
    rng = np.random.Generator(np.random.Philox(key=n_fft + hop))
    for n in _frame_lengths(n_fft, hop):
        x = rng.normal(size=n)
        want = _reference_frames(x, n_fft, hop)
        got = np.vstack([frames for _, frames in
                         audio._frame_runs(x, len(want), n_fft, hop)])
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), n


# --------------------------------------------------------------------------
# mel scale and filterbank


def test_mel_scale_anchor_points():
    assert float(hz_to_mel(0.0)) == 0.0
    assert float(hz_to_mel(1000.0)) == pytest.approx(15.0, abs=1e-12)
    assert float(hz_to_mel(500.0)) == pytest.approx(7.5, abs=1e-12)


def test_mel_round_trip():
    f = np.array([0.0, 123.0, 999.0, 1000.0, 4000.0, 11025.0])
    assert np.allclose(mel_to_hz(hz_to_mel(f)), f, atol=1e-8)


def test_mel_centers_match_hand_formula():
    centers = mel_center_frequencies()
    # independent piecewise evaluation: linear below 1 kHz at 200/3 Hz per
    # step, logarithmic above with ratio 6.4 per 27 steps
    logstep = np.log(6.4) / 27.0
    top = 15.0 + np.log(11025.0 / 1000.0) / logstep
    mels = np.linspace(0.0, top, 130)[1:-1]
    expect = np.where(
        mels < 15.0, mels * 200.0 / 3.0, 1000.0 * np.exp(logstep * (mels - 15.0))
    )
    assert np.allclose(centers, expect, rtol=1e-12)
    assert np.all(np.diff(centers) > 0)


def test_filterbank_shape_and_coverage():
    fb = mel_filterbank()
    assert fb.shape == (128, 1025)
    assert fb.min() >= 0.0
    assert np.all((fb > 0).any(axis=1))


def test_filterbank_is_cached_read_only():
    fb = mel_filterbank()
    assert mel_filterbank() is fb
    with pytest.raises(ValueError, match="read-only"):
        fb[0, 0] = 1.0


def test_log_mel_silence_hits_floor():
    clip = AudioClip(np.zeros(22050), 22050)
    feats = log_mel_mean(clip)
    assert feats.shape == (128,)
    assert np.allclose(feats, np.log(1e-10), atol=1e-12)


def test_tone_peaks_in_nearest_mel_band():
    clip = AudioClip(sine(440.0, 10.0, 22050), 22050)
    feats = log_mel_mean(clip)
    centers = mel_center_frequencies()
    assert feats.argmax() == np.abs(centers - 440.0).argmin()


def test_mel_power_scales_quadratically():
    x = sine(700.0, 0.5, TARGET_RATE)
    one = mel_power(AudioClip(x, TARGET_RATE))
    four = mel_power(AudioClip(2.0 * x, TARGET_RATE))
    assert np.allclose(four, 4.0 * one, rtol=1e-12)


# --------------------------------------------------------------------------
# cache key and end-to-end


def _digest(doc):
    text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def _frontend_doc():
    """The document the cache key digests, from the module's constants."""
    return {"frontend_version": audio.FRONTEND_VERSION, "hop": audio.HOP,
            "n_fft": audio.N_FFT, "n_mels": audio.N_MELS,
            "target_rate": audio.TARGET_RATE}


def test_cache_key_tracks_parameters():
    # CACHE_KEY is the digest of the constants as they are, so a changed
    # constant that the key did not follow fails here.
    assert len(audio.CACHE_KEY) == 16 and int(audio.CACHE_KEY, 16) >= 0
    assert _digest(_frontend_doc()) == audio.CACHE_KEY
    # rows cached by an earlier front end are never served by this one
    older = _frontend_doc() | {"frontend_version": audio.FRONTEND_VERSION - 1}
    assert _digest(older) != audio.CACHE_KEY


# A valid value other than the constant for each field.
_OTHER_VALUES = {"target_rate": 16000, "n_fft": 1024, "hop": 256, "n_mels": 64}


@pytest.mark.parametrize("field", sorted(_OTHER_VALUES))
def test_cache_key_tracks_every_field(field):
    changed = _frontend_doc() | {field: _OTHER_VALUES[field]}
    assert _digest(changed) != audio.CACHE_KEY


def test_cache_key_is_stable_and_spelling_blind():
    # The key names rows already cached on disk; it moves only when a
    # constant or FRONTEND_VERSION does, and then no row cached under it is
    # served.
    assert audio.CACHE_KEY == "10425535ab02faf1"
    # The document's keys are sorted: the order they are written in does
    # not change the key.
    assert _digest(dict(reversed(_frontend_doc().items()))) == "10425535ab02faf1"


def test_extract_features_end_to_end():
    wav = sine_wav(440.0, 2.0, 44100)
    feats = extract_features(wav)
    assert feats.shape == (128,)
    assert np.isfinite(feats).all()


def _features_reference(data, bits, channels, float_fmt):
    """The front end as it was: a decode without views, the two-row
    resampler, and an out-of-place log-mel."""
    words = np.frombuffer(data, dtype=np.uint8)[44:]
    if float_fmt:
        samples = words.view("<f4").astype(np.float64)
    else:
        width = bits // 8
        raw = words[: len(words) - len(words) % width].reshape(-1, width)
        ints = np.zeros(len(raw), dtype=np.int64)
        for i in range(width):
            ints |= raw[:, i].astype(np.int64) << (8 * i)
        ints -= (ints >> (bits - 1)) << bits  # two's complement
        samples = ints / 2.0 ** (bits - 1)
    if channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
    rate = struct.unpack_from("<I", data, 24)[0]
    x = _resample_two_row(AudioClip(samples, rate), TARGET_RATE)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(N_FFT) / N_FFT)
    power = np.abs(np.fft.rfft(_reference_frames(x, N_FFT, HOP) * window,
                               axis=1)) ** 2
    mel = mel_filterbank() @ power.T
    return np.log(mel + LOG_FLOOR).mean(axis=1)


@pytest.mark.parametrize("channels", [1, 2])
@pytest.mark.parametrize("bits,float_fmt", [(16, False), (24, False), (32, False),
                                            (32, True)])
def test_extract_features_keeps_the_reference_bits(bits, float_fmt, channels):
    # Downsampled (interior and edge outputs), at the rate already, and
    # upsampled with every output an edge output, into an STFT shorter than
    # one frame.
    rng = np.random.Generator(np.random.Philox(key=bits + channels))
    for rate, seconds in [(48000, 0.5), (44100, 0.3), (22050, 0.2), (8000, 0.01)]:
        n = int(rate * seconds)
        if float_fmt:
            frames = rng.uniform(-1, 1, size=(n, channels)).astype(np.float32)
        else:
            lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
            frames = rng.integers(lo, hi, size=(n, channels), endpoint=True)
        data = make_wav(frames, rate, bits=bits, float_fmt=float_fmt)
        want = _features_reference(data, bits, channels, float_fmt)
        assert extract_features(data).tobytes() == want.tobytes()
        # read_file's buffer, viewed, gives the same row
        view = memoryview(bytearray(data))
        assert extract_features(view).tobytes() == want.tobytes()


def test_extract_features_thread_safe_and_deterministic():
    wav = sine_wav(330.0, 1.0, 44100)
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: extract_features(wav), range(4)))
    for r in results[1:]:
        assert np.array_equal(r, results[0])
