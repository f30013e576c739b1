"""Self-describing checkpoint container.

Layout: a text manifest (one line per tensor with name, dtype, shape, byte
offset and length; a 0-d array's shape is "()"), a PAYLOAD marker, then the
raw little-endian float bytes back to back. Loading restores arrays
bit-exactly, so a forward pass after save/load reproduces the pre-save
outputs to the bit.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .data import _read_input
from .errors import FormatError

MAGIC = "MONOPGC-CKPT 1"

_DTYPES = {"f4": "<f4", "f8": "<f8"}
# manifest shape of a 0-d array; files written before it stored such arrays
# as shape "1" and still load, as shape (1,)
SCALAR_SHAPE = "()"


def save_checkpoint(path, params, step=0, config_hash="", extra_arrays=None, meta=None):
    """Write parameter tensors (and optional optimizer arrays) to one file."""
    entries = []
    payload = bytearray()

    def add(name, array):
        arr = np.asarray(array)  # tobytes() below is C order; keeps 0-d arrays 0-d
        if arr.dtype == np.float32:
            code = "f4"
        elif arr.dtype == np.float64:
            code = "f8"
        else:
            arr = arr.astype(np.float64)
            code = "f8"
        raw = arr.astype(_DTYPES[code], copy=False).tobytes()
        shape = ",".join(str(s) for s in arr.shape) or SCALAR_SHAPE
        entries.append(f"tensor {name} {code} {shape} {len(payload)} {len(raw)}")
        payload.extend(raw)

    for name in sorted(params):
        tensor = params[name]
        add(f"param:{name}", tensor.data if hasattr(tensor, "data") else tensor)
    for name in sorted(extra_arrays or {}):
        add(name, (extra_arrays or {})[name])

    header = [MAGIC, f"meta step {step}", f"meta config_hash {config_hash}"]
    for key, value in sorted((meta or {}).items()):
        header.append(f"meta {key} {value}")
    header.extend(entries)
    header.append(f"PAYLOAD {len(payload)}")
    blob = ("\n".join(header) + "\n").encode("ascii") + bytes(payload)
    Path(path).write_bytes(blob)
    return len(blob)


def load_checkpoint(path):
    """Read a checkpoint into {'params': {...}, 'extra': {...}, 'meta': {...}}."""
    return _read_input(path, "checkpoint", parse_checkpoint, text=False)


def parse_checkpoint(blob):
    """`load_checkpoint` of a checkpoint file's bytes."""
    marker = blob.find(b"\nPAYLOAD ")
    header_end = blob.find(b"\n", marker + 1)
    if not blob.startswith(MAGIC.encode()) or marker < 0 or header_end < 0:
        raise FormatError("not a checkpoint container")
    try:
        header = blob[:marker].decode("ascii").splitlines()
        declared = int(blob[marker + len(b"\nPAYLOAD "):header_end])
    except ValueError:
        raise FormatError("manifest is not ASCII or its PAYLOAD count does not parse") from None
    payload = blob[header_end + 1:]
    if len(payload) != declared:
        raise FormatError(f"payload length {len(payload)} != declared {declared}")

    meta = {}
    params = {}
    extra = {}
    for line in header[1:]:
        kind, _, rest = line.partition(" ")
        if kind == "meta":
            key, _, value = rest.partition(" ")
            meta[key] = value
        elif kind == "tensor":
            try:
                name, code, shape_s, offset_s, nbytes_s = rest.split(" ")
                shape = () if shape_s == SCALAR_SHAPE else tuple(int(s) for s in shape_s.split(","))
                offset, nbytes = int(offset_s), int(nbytes_s)
            except ValueError:
                raise FormatError(f"malformed tensor line {line!r}") from None
            if code not in _DTYPES:
                raise FormatError(f"unknown dtype code {code!r}")
            dtype = np.dtype(_DTYPES[code])
            if (min(shape + (offset,)) < 0 or nbytes != math.prod(shape) * dtype.itemsize
                    or offset + nbytes > len(payload)):
                raise FormatError(f"tensor {name}: shape {shape_s} does not match "
                                  f"{nbytes} bytes at offset {offset} of a {len(payload)}-byte payload")
            arr = np.frombuffer(payload[offset:offset + nbytes], dtype=dtype).reshape(shape)
            if name.startswith("param:"):
                params[name[len("param:"):]] = arr
            else:
                extra[name] = arr
        else:
            raise FormatError(f"unknown manifest line {line!r}")
    try:
        meta["step"] = int(meta.get("step", 0))
    except ValueError:
        raise FormatError(f"meta step {meta['step']!r} is not an integer") from None
    return {"params": params, "extra": extra, "meta": meta}
