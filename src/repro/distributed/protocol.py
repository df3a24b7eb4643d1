"""Wire format of the coordinator/worker chunk-lease protocol.

One frame = an 8-byte header (``>II``: payload length, CRC-32 of the
payload) followed by a UTF-8 JSON object with a string ``"type"`` field.
The CRC catches corrupted frames *as a protocol event*: a receiver raises
:class:`FrameError` (a ``ConnectionError``), so both sides treat a corrupt
frame exactly like a lost connection — the coordinator drops the worker
and reassigns its leases, the worker reconnects.  Binary payloads (the
pickled ``(algorithm, source)`` pair) travel base64-encoded inside the
JSON.

Message flow (see README, "Distributed workers", for the lifecycle):

=============  =========  ====================================================
type           direction  meaning
=============  =========  ====================================================
``hello``      w → c      handshake: worker name + protocol version
``welcome``    c → w      handshake accepted
``pair``       c → w      pickled (algorithm, source) pair, keyed by ``token``
``lease``      c → w      compute the chunk ``(entropy, start, size)``
``heartbeat``  w → c      still computing ``start`` (run-scoped)
``result``     w → c      exact chunk statistics: histogram + witness count
``error``      w → c      the chunk's kernel raised; coordinator retries it
``shutdown``   c → w      no more work ever; worker exits cleanly
=============  =========  ====================================================

``lease``/``heartbeat``/``result``/``error`` carry the coordinator's run
id, so results of a superseded run (e.g. speculative chunks computed past
an adaptive stop) are recognizable as stale and discarded — the
distributed analogue of the sharded path cancelling its own futures.
"""

from __future__ import annotations

import base64
import json
import socket
import struct
import zlib

#: Version negotiated in the hello/welcome handshake; bumped on any
#: incompatible frame or message change, and on any change of what a chunk
#: computes (3: bit-plane gate order choices; 4: the Bernoulli tail queue of
#: stream ``bitplane-v3``), so a worker on older kernels or samplers is
#: turned away rather than mixing two streams into one run.
PROTOCOL_VERSION = 4

_HEADER = struct.Struct(">II")

#: Upper bound on a single frame's payload.  Generous (pair blobs are
#: kilobytes, histograms smaller), but it turns a garbled length prefix
#: into a clean :class:`FrameError` instead of an attempted huge read.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class FrameError(ConnectionError):
    """A malformed, corrupt (CRC mismatch), truncated or oversized frame."""


def send_message(sock: socket.socket, message: dict) -> None:
    """Serialize ``message`` as one length-prefixed, CRC-tagged frame."""
    data = json.dumps(message, separators=(",", ":")).encode("utf-8")
    sock.sendall(_HEADER.pack(len(data), zlib.crc32(data)) + data)


def send_corrupt_message(sock: socket.socket, message: dict) -> None:
    """Send ``message`` with one payload byte flipped (fault injection).

    The header's CRC describes the *original* payload, so the receiver's
    check must fail — this is the ``"corrupt"`` fault action's transport.
    """
    data = json.dumps(message, separators=(",", ":")).encode("utf-8")
    header = _HEADER.pack(len(data), zlib.crc32(data))
    sock.sendall(header + bytes([data[0] ^ 0xFF]) + data[1:])


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly ``count`` bytes; ``None`` on EOF at the first byte."""
    data = bytearray()
    while len(data) < count:
        piece = sock.recv(count - len(data))
        if not piece:
            if not data:
                return None
            raise FrameError(
                f"connection closed mid-frame ({len(data)}/{count} bytes)"
            )
        data += piece
    return bytes(data)


def recv_message(sock: socket.socket) -> dict | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    Raises :class:`FrameError` on a truncated header/payload, an
    implausible length, a CRC mismatch, or a payload that is not a typed
    JSON object.
    """
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    length, checksum = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    payload = _recv_exact(sock, length)
    if payload is None:
        raise FrameError("connection closed mid-frame (missing payload)")
    if zlib.crc32(payload) != checksum:
        raise FrameError("corrupt frame: CRC-32 mismatch")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise FrameError(f"corrupt frame: {error}") from None
    if not isinstance(message, dict) or not isinstance(message.get("type"), str):
        raise FrameError("frame payload is not a typed JSON object")
    return message


# -- message constructors ---------------------------------------------------------
# Both endpoints build messages through these, so field names live in one
# place.


def hello_message(worker: str) -> dict:
    return {"type": "hello", "protocol": PROTOCOL_VERSION, "worker": worker}


def welcome_message() -> dict:
    return {"type": "welcome", "protocol": PROTOCOL_VERSION}


def pair_message(token: str, blob: bytes) -> dict:
    return {
        "type": "pair",
        "token": token,
        "blob": base64.b64encode(blob).decode("ascii"),
    }


def pair_blob(message: dict) -> bytes:
    """The pickled pair carried by a ``pair`` message."""
    return base64.b64decode(message["blob"])


def lease_message(run: int, token: str, entropy: int, start: int, size: int) -> dict:
    return {
        "type": "lease",
        "run": run,
        "token": token,
        "entropy": entropy,
        "start": start,
        "size": size,
    }


def heartbeat_message(run: int, start: int) -> dict:
    return {"type": "heartbeat", "run": run, "start": start}


def result_message(
    run: int, start: int, trials: int, histogram: list[int], witness_red: int
) -> dict:
    return {
        "type": "result",
        "run": run,
        "start": start,
        "trials": trials,
        "histogram": histogram,
        "witness_red": witness_red,
    }


def error_message(run: int, start: int, error: str) -> dict:
    return {"type": "error", "run": run, "start": start, "error": error}


def shutdown_message() -> dict:
    return {"type": "shutdown"}


def parse_hostport(text: str) -> tuple[str, int]:
    """Parse ``HOST:PORT`` (port may be 0 for an ephemeral bind)."""
    host, separator, port_text = text.strip().rpartition(":")
    if not separator or not host:
        raise ValueError(f"expected HOST:PORT, got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"expected HOST:PORT, got {text!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port out of range in {text!r}")
    return host, port
