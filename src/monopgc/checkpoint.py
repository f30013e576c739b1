"""Self-describing checkpoint container.

Layout: a text manifest (one line per tensor with name, dtype, shape, byte
offset and length; a 0-d array's shape is "()"), a PAYLOAD marker, then the
raw little-endian float bytes back to back. Loading restores arrays
bit-exactly, so a forward pass after save/load reproduces the pre-save
outputs to the bit.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

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
    blob = Path(path).read_bytes()
    marker = blob.find(b"PAYLOAD ")
    if not blob.startswith(MAGIC.encode()) or marker < 0:
        raise FormatError(f"{path} is not a checkpoint container")
    header_end = blob.index(b"\n", marker)
    header = blob[:header_end].decode("ascii").splitlines()
    payload = blob[header_end + 1:]
    declared = int(header[-1].split()[1])
    if len(payload) != declared:
        raise FormatError(f"payload length {len(payload)} != declared {declared}")

    meta = {}
    params = {}
    extra = {}
    for line in header[1:-1]:
        kind, rest = line.split(" ", 1)
        if kind == "meta":
            key, _, value = rest.partition(" ")
            meta[key] = value
        elif kind == "tensor":
            name, code, shape_s, offset_s, nbytes_s = rest.split(" ")
            if code not in _DTYPES:
                raise FormatError(f"unknown dtype code {code!r}")
            shape = () if shape_s == SCALAR_SHAPE else tuple(int(s) for s in shape_s.split(","))
            offset, nbytes = int(offset_s), int(nbytes_s)
            arr = np.frombuffer(payload[offset:offset + nbytes], dtype=_DTYPES[code]).reshape(shape)
            if name.startswith("param:"):
                params[name[len("param:"):]] = arr
            else:
                extra[name] = arr
        else:
            raise FormatError(f"unknown manifest line {line!r}")
    meta["step"] = int(meta.get("step", 0))
    return {"params": params, "extra": extra, "meta": meta}
