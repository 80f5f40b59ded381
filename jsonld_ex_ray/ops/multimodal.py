"""Multimodal column plumbing: opaque ``binary`` payloads + typed metadata.

    media(media_id:int64, kind:string, payload:binary, meta:string[json])
      → map_batches(decode_batch, batch_size=16)
      → features table

Decode is REAL where the standard library allows it — no codec packages
exist in this container, but:

- **PNG** (``kind="image"``): a pure-stdlib decoder (zlib inflate + the
  five scanline filters, 8-bit gray/RGB/RGBA, non-interlaced) recovers
  true width/height and pixel statistics;
- **WAV** (``kind="audio"``): the stdlib ``wave`` module recovers sample
  rate/frames; features are chunked RMS energies.

JPEG/video decode genuinely needs external codecs, so those kinds take
the clearly-marked NotImplementedError path and surface as error rows
(width/height/duration −1) rather than fake numbers — the schema and
batch sizing are identical for a real libav/PIL deployment.

Every stage is a plain Ray task, as the KG stages are (``stages/state.py``
says why): none holds per-worker state. A deployment whose codec or
model is costly to load builds it once per worker process through
``stages/state.worker_state``. Batch size MUST stay small for binary
columns: batch_bytes ≈ :data:`BATCH_ROWS` × payload_size × concurrent
tasks must fit the worker heap (SURVEY.md "memory-aware" note).
"""

from __future__ import annotations

import hashlib
import io
import json
import struct
import zlib

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("kind", pa.string()),  # image | audio | video
        ("payload", pa.binary()),
        ("meta", pa.string()),  # JSON: {width,height,...} claimed by source
    ]
)

FEATURE_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("kind", pa.string()),
        ("n_bytes", pa.int64()),
        ("sha256", pa.string()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("duration_ms", pa.int32()),
        ("feature", pa.list_(pa.float32())),  # embedding-like vector
    ]
)

FEATURE_DIM = 16

_PNG_MAGIC = b"\x89PNG\r\n\x1a\n"

BATCH_ROWS = 16  # media rows per task call of every stage here


# ---------------------------------------------------------------------------
# PNG (pure stdlib)
# ---------------------------------------------------------------------------


def _png_decode(payload: bytes) -> tuple[int, int, np.ndarray]:
    """→ (width, height, pixels[h, w, c] uint8). Supports bit depth 8,
    color types 0 (gray), 2 (RGB), 6 (RGBA), no interlace."""
    if not payload.startswith(_PNG_MAGIC):
        raise ValueError("not a PNG")
    pos = len(_PNG_MAGIC)
    width = height = None
    color_type = bit_depth = None
    idat = bytearray()
    while pos + 8 <= len(payload):
        length, ctype = struct.unpack(">I4s", payload[pos : pos + 8])
        data = payload[pos + 8 : pos + 8 + length]
        pos += 12 + length  # length + type + data + crc
        if ctype == b"IHDR":
            width, height, bit_depth, color_type, _comp, _filt, interlace = struct.unpack(
                ">IIBBBBB", data
            )
            if bit_depth != 8 or interlace != 0 or color_type not in (0, 2, 6):
                raise ValueError(f"unsupported PNG (depth={bit_depth} ct={color_type})")
        elif ctype == b"IDAT":
            idat.extend(data)
        elif ctype == b"IEND":
            break
    if width is None:
        raise ValueError("no IHDR")
    channels = {0: 1, 2: 3, 6: 4}[color_type]
    raw = zlib.decompress(bytes(idat))
    stride = width * channels
    if len(raw) != height * (stride + 1):
        raise ValueError("bad PNG data length")
    out = np.empty((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.uint8)
    for y in range(height):
        row_start = y * (stride + 1)
        ftype = raw[row_start]
        line = np.frombuffer(raw, dtype=np.uint8, count=stride, offset=row_start + 1).copy()
        if ftype == 0:
            cur = line
        elif ftype == 2:  # Up
            cur = line + prev
        elif ftype in (1, 3, 4):  # Sub / Average / Paeth need left-to-right
            cur = np.zeros(stride, dtype=np.uint8)
            bpp = channels
            for x in range(stride):
                left = cur[x - bpp] if x >= bpp else 0
                up = prev[x]
                if ftype == 1:
                    pred = left
                elif ftype == 3:
                    pred = (int(left) + int(up)) // 2
                else:
                    ul = prev[x - bpp] if x >= bpp else 0
                    p = int(left) + int(up) - int(ul)
                    pa_, pb, pc_ = abs(p - int(left)), abs(p - int(up)), abs(p - int(ul))
                    pred = left if (pa_ <= pb and pa_ <= pc_) else (up if pb <= pc_ else ul)
                cur[x] = (int(line[x]) + int(pred)) & 0xFF
        else:
            raise ValueError(f"bad filter {ftype}")
        out[y] = cur
        prev = cur
    return width, height, out.reshape(height, width, channels)


def _png_encode(pixels: np.ndarray) -> bytes:
    """Minimal 8-bit PNG encoder (filter 0 rows) for gray / RGB / RGBA —
    the shapes ``_png_decode`` produces, so resize round-trips every
    supported input (an RGB-only encoder made valid gray/RGBA images
    error rows). Raises for unsupported channel counts — never an assert
    that python -O would strip into silently corrupt output."""
    h, w, c = pixels.shape
    color_type = {1: 0, 3: 2, 4: 6}.get(c)
    if color_type is None or pixels.dtype != np.uint8:
        raise ValueError(f"unsupported pixel shape for PNG encode: {pixels.shape} {pixels.dtype}")
    raw = b"".join(b"\x00" + pixels[y].tobytes() for y in range(h))

    def chunk(ctype: bytes, data: bytes) -> bytes:
        return (
            struct.pack(">I", len(data))
            + ctype
            + data
            + struct.pack(">I", zlib.crc32(ctype + data) & 0xFFFFFFFF)
        )

    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    return (
        _PNG_MAGIC
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(raw, 6))
        + chunk(b"IEND", b"")
    )


# ---------------------------------------------------------------------------
# WAV (stdlib wave module)
# ---------------------------------------------------------------------------


def _wav_decode(payload: bytes) -> tuple[int, int, np.ndarray]:
    """→ (sample_rate, n_frames, samples float64 in [-1, 1])."""
    import wave

    with wave.open(io.BytesIO(payload), "rb") as w:
        rate = w.getframerate()
        n = w.getnframes()
        width = w.getsampwidth()
        frames = w.readframes(n)
    if width == 2:
        samples = np.frombuffer(frames, dtype="<i2").astype(np.float64) / 32768.0
    elif width == 1:
        samples = (np.frombuffer(frames, dtype=np.uint8).astype(np.float64) - 128.0) / 128.0
    else:
        raise ValueError(f"unsupported sample width {width}")
    return rate, n, samples


def _wav_encode(samples: np.ndarray, rate: int = 16000) -> bytes:
    import wave

    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(rate)
        w.writeframes((np.clip(samples, -1, 1) * 32767).astype("<i2").tobytes())
    return buf.getvalue()


# ---------------------------------------------------------------------------
# decode kernel
# ---------------------------------------------------------------------------


def _decode(kind: str, payload: bytes, meta: dict) -> dict:
    """Real stdlib decode for PNG images and WAV audio; JPEG/video need
    external codecs → NotImplementedError (surfaced as error features)."""
    if kind == "image" and payload.startswith(_PNG_MAGIC):
        w, h, px = _png_decode(payload)
        gray = px[..., :3].mean(axis=2) if px.shape[2] >= 3 else px[..., 0].astype(np.float64)
        feat = [w / 4096.0, h / 4096.0, float(gray.mean()) / 255.0, float(gray.std()) / 255.0]
        # 3x4 downsampled luminance grid → 12 values; images smaller than
        # the grid produce EMPTY cells whose .mean() is NaN — emit 0.0
        # for those instead of poisoning the feature vector
        gh = np.array_split(gray, 3, axis=0)
        for band in gh:
            for cell in np.array_split(band, 4, axis=1):
                feat.append(float(cell.mean()) / 255.0 if cell.size else 0.0)
        return {"width": w, "height": h, "duration_ms": 0, "feature": feat[:FEATURE_DIM]}
    if kind == "audio" and payload[:4] == b"RIFF":
        rate, n, samples = _wav_decode(payload)
        dur_ms = int(n * 1000 / rate) if rate else 0
        feat = [
            min(1.0, dur_ms / 60_000.0),
            rate / 48_000.0,
            float(np.sqrt((samples**2).mean())) if len(samples) else 0.0,
            float(np.abs(np.diff(np.signbit(samples))).mean()) if len(samples) > 1 else 0.0,
        ]
        for chunkv in np.array_split(samples, 12) if len(samples) else []:
            feat.append(float(np.sqrt((chunkv**2).mean())) if len(chunkv) else 0.0)
        feat = (feat + [0.0] * FEATURE_DIM)[:FEATURE_DIM]
        return {"width": 0, "height": 0, "duration_ms": dur_ms, "feature": feat}
    # JPEG / video / unrecognized bytes: no stdlib codec exists — honest
    # error path, not a fake decode
    raise NotImplementedError(f"no stdlib decoder for kind={kind!r}")


def decode_batch(batch: pa.Table) -> pa.Table:
    """Media rows → feature rows (FEATURE_SCHEMA), one per input row."""
    out: dict[str, list] = {name: [] for name in FEATURE_SCHEMA.names}
    ids = batch.column("media_id").to_pylist()
    kinds = batch.column("kind").to_pylist()
    payloads = batch.column("payload").to_pylist()
    metas = batch.column("meta").to_pylist()
    for mid, kind, payload, meta in zip(ids, kinds, payloads, metas):
        payload = payload or b""
        try:
            meta_d = json.loads(meta) if meta else {}
        except ValueError:
            meta_d = {}
        try:
            dec = _decode(kind, payload, meta_d)
        except Exception:
            # any malformed payload (truncated chunks, corrupt zlib
            # streams, bad RIFF headers, ...) becomes an error ROW —
            # a poisoned record must never kill the batch/task
            dec = {"width": -1, "height": -1, "duration_ms": -1, "feature": [0.0] * FEATURE_DIM}
        out["media_id"].append(mid)
        out["kind"].append(kind)
        out["n_bytes"].append(len(payload))
        out["sha256"].append(hashlib.sha256(payload).hexdigest())
        out["width"].append(dec["width"])
        out["height"].append(dec["height"])
        out["duration_ms"].append(dec["duration_ms"])
        feat = (list(dec["feature"]) + [0.0] * FEATURE_DIM)[:FEATURE_DIM]
        out["feature"].append([float(np.float32(v)) for v in feat])
    return pa.Table.from_pydict(out, schema=FEATURE_SCHEMA)


def decode_media(ds):
    """The decode stage: :func:`decode_batch` as a plain task over
    small binary batches."""
    return ds.map_batches(decode_batch, batch_format="pyarrow", zero_copy_batch=True, batch_size=BATCH_ROWS)


def synth_media_table(n: int, seed: int = 5) -> pa.Table:
    """Deterministic media rows for tests: REAL encoded payloads — PNGs
    (seeded gradient pixels) and WAVs (seeded sine mixtures) — plus
    'video'/'unknown' rows whose bytes have no stdlib codec (they take
    the error path by design)."""
    rng = np.random.RandomState(seed)
    kinds, payloads, metas, ids = [], [], [], []
    for i in range(n):
        kind = ["image", "audio", "video", "unknown"][int(rng.randint(4))]
        if kind == "image":
            w, h = int(rng.randint(8, 48)), int(rng.randint(8, 48))
            yy, xx = np.mgrid[0:h, 0:w]
            px = np.stack(
                [
                    (xx * 255 // max(1, w - 1)).astype(np.uint8),
                    (yy * 255 // max(1, h - 1)).astype(np.uint8),
                    np.full((h, w), int(rng.randint(256)), dtype=np.uint8),
                ],
                axis=2,
            )
            payload = _png_encode(px)
            meta = {"width": w, "height": h}
        elif kind == "audio":
            rate = 8000
            dur = float(rng.uniform(0.05, 0.4))
            t = np.arange(int(rate * dur)) / rate
            freq = float(rng.uniform(100, 2000))
            samples = 0.5 * np.sin(2 * np.pi * freq * t)
            payload = _wav_encode(samples, rate)
            meta = {"duration_ms": int(dur * 1000)}
        else:
            size = int(rng.randint(64, 4096))
            payload = rng.randint(0, 256, size=size, dtype=np.uint8).tobytes()
            meta = {"duration_ms": int(rng.randint(1000))}
        ids.append(i)
        kinds.append(kind)
        payloads.append(payload)
        metas.append(json.dumps(meta))
    return pa.Table.from_pydict(
        {"media_id": ids, "kind": kinds, "payload": payloads, "meta": metas},
        schema=MEDIA_SCHEMA,
    )


RESIZED_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("payload", pa.binary()),  # re-encoded PNG, or null on error
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("error_code", pa.string()),
    ]
)


def _bilinear_resize(px: np.ndarray, tw: int, th: int) -> np.ndarray:
    """Vectorized bilinear resample (H, W, C) uint8 → (th, tw, C) uint8 —
    pure numpy, the real kernel a PIL deployment would delegate to."""
    h, w, c = px.shape
    if h == th and w == tw:
        return px
    # sample positions mapped to source pixel-centre coordinates
    ys = (np.arange(th) + 0.5) * h / th - 0.5
    xs = (np.arange(tw) + 0.5) * w / tw - 0.5
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0)[:, None, None]
    wx = np.clip(xs - x0, 0.0, 1.0)[None, :, None]
    p = px.astype(np.float64)
    top = p[y0][:, x0] * (1 - wx) + p[y0][:, x1] * wx
    bot = p[y1][:, x0] * (1 - wx) + p[y1][:, x1] * wx
    out = top * (1 - wy) + bot * wy
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def resize_batch(batch: pa.Table, target_size: tuple[int, int] = (32, 32)) -> pa.Table:
    """Resize kernel: decode PNG → bilinear resample to ``target_size``
    → re-encode PNG. Real end-to-end for PNG inputs (stdlib decode +
    numpy kernel + stdlib encode); payloads without a stdlib codec
    surface as error rows with a null payload — never a fake image."""
    tw, th = int(target_size[0]), int(target_size[1])
    out: dict[str, list] = {name: [] for name in RESIZED_SCHEMA.names}
    for mid, payload in zip(
        batch.column("media_id").to_pylist(), batch.column("payload").to_pylist()
    ):
        payload = payload or b""
        try:
            if not payload.startswith(_PNG_MAGIC):
                raise NotImplementedError("no stdlib decoder")
            _w, _h, px = _png_decode(payload)
            resized = _bilinear_resize(px, tw, th)
            out["payload"].append(_png_encode(resized))
            out["width"].append(tw)
            out["height"].append(th)
            out["error_code"].append(None)
        except Exception as e:
            out["payload"].append(None)
            out["width"].append(-1)
            out["height"].append(-1)
            out["error_code"].append(type(e).__name__)
        out["media_id"].append(mid)
    return pa.Table.from_pydict(out, schema=RESIZED_SCHEMA)


def resize_images(ds, target_size=(32, 32)):
    """The resize stage: :func:`resize_batch` as a plain task, with the
    same small binary batches as decode_media."""
    return ds.map_batches(
        resize_batch,
        fn_kwargs={"target_size": target_size},
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=BATCH_ROWS,
    )


FRAME_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("frame_idx", pa.int32()),
        ("ts_ms", pa.int32()),
        ("payload", pa.binary()),  # null: no stdlib video codec
        ("error_code", pa.string()),
    ]
)


def _decode_frame(payload: bytes, ts_ms: int) -> bytes:
    raise NotImplementedError("no stdlib video codec")


def frame_batch(batch: pa.Table, every_ms: int = 1000, max_frames: int = 32) -> pa.Table:
    """Frame-sampling kernel for video payloads: the sampling GRID (which
    timestamps to extract, from the source-claimed duration in ``meta``)
    is real and tested; the pixel decode behind each frame genuinely
    needs an external codec, so every frame row carries a null payload +
    ``error_code='NotImplementedError'`` — a libav deployment replaces
    ONE function (``_decode_frame``) and the schema, fan-out and batch
    sizing hold unchanged."""
    if every_ms <= 0:
        raise ValueError("every_ms must be positive")
    out: dict[str, list] = {name: [] for name in FRAME_SCHEMA.names}
    for mid, payload, meta in zip(
        batch.column("media_id").to_pylist(),
        batch.column("payload").to_pylist(),
        batch.column("meta").to_pylist(),
    ):
        try:
            # malformed meta of ANY shape (bad JSON, null duration, a
            # string, valid-JSON non-objects like 'null'/'[1]')
            # degrades to duration 0, never a dead task
            parsed = json.loads(meta) if meta else {}
            if not isinstance(parsed, dict):
                parsed = {}
            dur = int(parsed.get("duration_ms", 0) or 0)
        except (ValueError, TypeError):
            dur = 0
        n = min(max(dur, 0) // every_ms + 1, max_frames)
        for i in range(n):
            ts = i * every_ms
            try:
                frame = _decode_frame(payload or b"", ts)
                err = None
            except NotImplementedError as e:
                frame, err = None, type(e).__name__
            out["media_id"].append(mid)
            out["frame_idx"].append(i)
            out["ts_ms"].append(ts)
            out["payload"].append(frame)
            out["error_code"].append(err)
    return pa.Table.from_pydict(out, schema=FRAME_SCHEMA)


def sample_frames(ds, every_ms: int = 1000):
    """The frame-sampling stage (video rows only upstream):
    :func:`frame_batch` as a plain task."""
    return ds.map_batches(
        frame_batch,
        fn_kwargs={"every_ms": every_ms},
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=BATCH_ROWS,
    )
