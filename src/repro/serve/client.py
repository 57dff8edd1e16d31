"""Client library for the ``repro.serve`` protocol (sync and asyncio).

:class:`ServeClient` is a plain-socket, blocking client — what the CLI,
the test suite, and the loopback benchmark use.  :class:`AsyncServeClient`
is the same surface on asyncio streams for callers already inside an
event loop.  Both are *sans-server*: all framing lives in
:mod:`repro.serve.protocol`, so the transports stay thin.

Credit discipline: the WELCOME frame grants an insert window; every
:meth:`~ServeClient.insert` spends one credit and the server returns it
(CREDIT) once the batch is ingested.  At zero credits the client blocks
reading frames until a credit arrives — backpressure, not buffering.

Server-pushed frames (subscription RESULTs) can interleave with the reply
the client is waiting on; they are buffered in arrival order and consumed
by :meth:`~ServeClient.pushes`.  ERROR frames raise
:class:`~repro.serve.protocol.RemoteError` carrying the structured code.

Failure handling: any transport error (``socket.timeout``, a reset, EOF)
marks the client **dead** — the socket is closed and every later call
fails fast with the same structured :class:`ClientConnectionError` instead
of confusing errors off a half-broken stream.  With ``retries > 0`` the
client instead reconnects with exponential backoff + jitter and replays
exactly the unacknowledged INSERT batches: each batch carries a ``seq``
the server echoes on its CREDIT, so an acked batch is never re-sent and an
unacked one is sent at most once per connection epoch.
:meth:`~ServeClient.flush` then reports a deterministic per-batch outcome
(``acked`` or ``replayed``) even across a server restart.
"""

from __future__ import annotations

import asyncio
import random
import socket
import time

from repro.core.errors import DecayError, ProtocolError
from repro.serve import protocol
from repro.serve.protocol import Frame, FrameDecoder, RemoteError

__all__ = ["ServeClient", "AsyncServeClient", "ClientConnectionError"]

#: How many bytes one ``recv`` asks the socket for.
_RECV_BYTES = 64 * 1024


class ClientConnectionError(DecayError, ConnectionError):
    """The client's transport is gone (timeout, reset, or EOF).

    Raised by the call that hit the error and by every call after it: a
    dead client stays dead (fail-fast) unless it was built with
    ``retries > 0``, in which case the failing call reconnects and
    resumes.  ``last_error`` keeps the underlying transport exception.
    """

    def __init__(self, message: str, last_error: BaseException | None = None):
        super().__init__(message)
        self.last_error = last_error


class _ClientCore:
    """Transport-free client state machine shared by both clients.

    Subclasses provide the transport-touching operations; everything else
    — handshake payloads, credit accounting, reply matching, push
    buffering, batch-sequence bookkeeping, backoff schedules — lives here.
    """

    def __init__(
        self,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
        retries: int = 0,
        backoff_s: float = 0.05,
        backoff_max_s: float = 2.0,
        jitter: bool = True,
        columnar: bool = True,
        batch_rows: int = 1024,
    ):
        if retries < 0:
            raise protocol.ProtocolError(
                f"retries must be >= 0, got {retries!r}"
            )
        if backoff_s <= 0 or backoff_max_s <= 0:
            raise protocol.ProtocolError(
                "backoff_s and backoff_max_s must be positive, got "
                f"{backoff_s!r}/{backoff_max_s!r}"
            )
        if batch_rows < 1:
            raise protocol.ProtocolError(
                f"batch_rows must be >= 1, got {batch_rows!r}"
            )
        self._decoder = FrameDecoder(max_frame_bytes)
        self._max_frame_bytes = max_frame_bytes
        self._pending: list[Frame] = []
        self._pushes: list[Frame] = []
        self.credits = 0
        self.window = 0
        self.server_info: dict = {}
        self.retries = retries
        self.backoff_s = backoff_s
        self.backoff_max_s = backoff_max_s
        self.jitter = jitter
        self.reconnects = 0
        self._dead: ClientConnectionError | None = None
        self._closed = False
        self._close_info: dict = {}
        # Columnar negotiation: the client HELLOs its preferred version
        # and adopts whatever WELCOME grants; batches are framed at send
        # time, so replays survive a server up/downgrade mid-stream.
        self._columnar = columnar
        self._prefer_version = (
            protocol.WIRE_VERSION if columnar else protocol.MIN_WIRE_VERSION
        )
        self.negotiated_version = protocol.MIN_WIRE_VERSION
        # Client-side accumulation (the append() knob): rows buffer here
        # until batch_rows are ready, then ship as one batch.
        self.batch_rows = batch_rows
        self._row_buffer: list[tuple] = []
        # Batch-replay accounting: every INSERT gets a client-unique seq;
        # the server echoes it on the CREDIT that acknowledges the batch.
        self._next_seq = 1
        self._unacked: dict[int, list] = {}  # seq -> raw rows (FIFO)
        self._sent_on_conn: set[int] = set()  # seqs sent this connection
        self._outcomes: dict[int, str] = {}  # seq -> "sent" | "replayed"

    # -- frame bookkeeping ---------------------------------------------------------

    def _hello_payload(self, schema_names: list | None) -> dict:
        payload = {"wire_version": self._prefer_version, "client": "repro"}
        if schema_names is not None:
            payload["schema"] = list(schema_names)
        return payload

    def _reset_stream_state(self, welcome: Frame) -> None:
        """Adopt a fresh connection: new decoder, full credit window."""
        self.server_info = welcome.payload
        self.negotiated_version = int(
            welcome.payload.get("wire_version", protocol.MIN_WIRE_VERSION)
        )
        self.credits = int(welcome.payload.get("credits", 1))
        self.window = self.credits
        self._decoder = FrameDecoder(self._max_frame_bytes)
        self._pending = []
        self._sent_on_conn = set()

    @property
    def columnar_active(self) -> bool:
        """True when batches go out as INSERT_COLS on this connection."""
        return self._columnar and self.negotiated_version >= 2

    def _insert_frame(self, seq: int, rows: list[tuple]) -> bytes:
        """Frame one batch for the negotiated wire version.

        Framing happens at send time, not registration time: a batch
        registered against a v2 connection but replayed after reconnecting
        to a v1 server goes out as a row INSERT, and vice versa.
        """
        if self.columnar_active:
            return protocol.encode_cols(
                protocol.rows_to_cols(rows),
                seq=seq,
                max_frame_bytes=self._max_frame_bytes,
            )
        return protocol.encode_frame(
            protocol.INSERT,
            {"rows": protocol.encode_rows(rows), "seq": seq},
            max_frame_bytes=self._max_frame_bytes,
        )

    def _absorb(self, frame: Frame) -> Frame | None:
        """Book-keep one incoming frame; return it if a caller should see it.

        CREDIT frames update the window, acknowledge their batch, and
        vanish; subscription pushes (RESULT with a ``sub`` field) are
        queued for :meth:`pushes`; ERROR frames raise.  Anything else is
        a direct reply.
        """
        if frame.ftype == protocol.CREDIT:
            self.credits += int(frame.payload.get("credits", 1))
            seq = frame.payload.get("seq")
            if seq is not None:
                self._unacked.pop(seq, None)
            elif self._unacked:
                # Pre-seq server: credits return in send order, so the
                # oldest outstanding batch is the one acknowledged.
                self._unacked.pop(next(iter(self._unacked)))
            # The server may grant 0 or 2 credits per batch to shrink or
            # grow the window under backend pressure; track the implied
            # window so flush's drain target follows it instead of
            # waiting forever for credits the server withheld.
            self.window = self.credits + len(self._unacked)
            return None
        if frame.ftype == protocol.RESULT and "sub" in frame.payload:
            self._pushes.append(frame)
            return None
        if frame.ftype == protocol.ERROR:
            raise RemoteError(
                frame.payload.get("code", "error"),
                frame.payload.get("message", ""),
            )
        return frame

    def _buffered_reply(self) -> Frame | None:
        if self._pending:
            return self._pending.pop(0)
        return None

    def _decode_chunk(self, data: bytes) -> None:
        if not data:
            raise ConnectionError("server closed the connection")
        self._decoder.feed(data)
        # Absorb the whole chunk before raising: the server answers a
        # rejected batch with ERROR then CREDIT, and a CREDIT left in the
        # decoder would make the next wait block for a credit already held.
        first_error: RemoteError | None = None
        for frame in self._decoder.frames():
            try:
                seen = self._absorb(frame)
            except RemoteError as error:
                if first_error is None:
                    first_error = error
                continue
            if seen is not None:
                self._pending.append(seen)
        if first_error is not None:
            raise first_error

    @staticmethod
    def _expect(frame: Frame, ftype: int) -> Frame:
        if frame.ftype != ftype:
            raise RemoteError(
                "unexpected-frame",
                f"expected {protocol.frame_name(ftype)}, got {frame.name}",
            )
        return frame

    def drain_pushes(self) -> list[dict]:
        """Subscription results buffered so far (decoded, arrival order)."""
        frames, self._pushes = self._pushes, []
        return [
            {
                "sub": frame.payload.get("sub"),
                "seq": frame.payload.get("seq"),
                "done": frame.payload.get("done", False),
                "rows": protocol.decode_result_rows(frame.payload["rows"]),
            }
            for frame in frames
        ]

    def has_pushes(self) -> bool:
        return bool(self._pushes)

    # -- failure / retry bookkeeping -----------------------------------------------

    @property
    def auto_reconnect(self) -> bool:
        """Whether transport errors trigger reconnect instead of fail-fast."""
        return self.retries > 0

    @property
    def unacked_batches(self) -> list[int]:
        """Seqs of INSERT batches sent but not yet credited, oldest first."""
        return list(self._unacked)

    @property
    def unacked_rows(self) -> int:
        """Rows in batches sent but not yet credited.

        These rows will be replayed after a reconnect, so a router doing
        loss accounting counts only *acked* rows (``sent - unacked``)
        against a node's last checkpoint.
        """
        return sum(len(rows) for rows in self._unacked.values())

    def _mark_dead(self, error: BaseException) -> ClientConnectionError:
        """Record the transport death; all later calls fail with this."""
        if self._dead is None:
            self._dead = ClientConnectionError(
                f"connection lost: {error}", last_error=error
            )
        return self._dead

    def _ensure_usable(self) -> None:
        if self._closed:
            raise ClientConnectionError("client is closed")
        if self._dead is not None:
            raise self._dead

    def _register_batch(self, rows) -> tuple[int, list]:
        """Assign the next seq to a batch and track it until its CREDIT.

        Batches are tracked as raw row tuples (not encoded frames) so the
        wire format is chosen per connection at send time.
        """
        rows = [tuple(row) for row in rows]
        seq = self._next_seq
        self._next_seq += 1
        self._unacked[seq] = rows
        self._outcomes[seq] = "sent"
        return seq, rows

    def _backoff_delay(self, attempt: int) -> float:
        """Exponential backoff with (optional) jitter, capped."""
        delay = min(self.backoff_max_s, self.backoff_s * (2.0 ** attempt))
        if self.jitter:
            delay *= 0.5 + 0.5 * random.random()
        return delay

    def _flush_report(self) -> dict:
        """Per-batch outcomes since the previous flush; clears the window."""
        outcomes = {
            seq: ("replayed" if state == "replayed" else "acked")
            for seq, state in self._outcomes.items()
        }
        self._outcomes = {}
        return {"outcomes": outcomes, "reconnects": self.reconnects}


class ServeClient(_ClientCore):
    """Blocking TCP client; performs the HELLO handshake on construction.

    Usable as a context manager::

        with ServeClient(host, port) as client:
            client.insert(rows)
            results = client.query()

    With ``retries=N`` (opt-in) the client survives transport failures and
    server restarts: failed calls reconnect with exponential backoff
    (``backoff_s`` doubling per attempt up to ``backoff_max_s``, jittered),
    and unacknowledged INSERT batches are replayed by ``seq`` — see the
    module docstring for the exact semantics.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        schema_names: list | None = None,
        timeout_s: float | None = 30.0,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
        retries: int = 0,
        backoff_s: float = 0.05,
        backoff_max_s: float = 2.0,
        jitter: bool = True,
        columnar: bool = True,
        batch_rows: int = 1024,
    ):
        super().__init__(
            max_frame_bytes,
            retries=retries,
            backoff_s=backoff_s,
            backoff_max_s=backoff_max_s,
            jitter=jitter,
            columnar=columnar,
            batch_rows=batch_rows,
        )
        self._host = host
        self._port = port
        self._schema_names = schema_names
        self._timeout_s = timeout_s
        self._sock: socket.socket | None = None
        self._connect()

    # -- transport -----------------------------------------------------------------

    def _connect(self) -> None:
        """Dial and handshake, falling back to the row wire if rejected.

        A pre-columnar server that refuses the v2 HELLO outright (code
        ``wire-version``) gets one redial at the minimum version; all
        other handshake errors propagate.
        """
        try:
            self._dial()
        except RemoteError as error:
            if (
                error.code != "wire-version"
                or self._prefer_version <= protocol.MIN_WIRE_VERSION
            ):
                raise
            self._prefer_version = protocol.MIN_WIRE_VERSION
            self._dial()

    def _dial(self) -> None:
        """Dial and handshake; adopt the fresh connection on success."""
        sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout_s
        )
        try:
            sock.sendall(
                protocol.encode_frame(
                    protocol.HELLO,
                    self._hello_payload(self._schema_names),
                    max_frame_bytes=self._max_frame_bytes,
                )
            )
            decoder = FrameDecoder(self._max_frame_bytes)
            welcome = None
            while welcome is None:
                data = sock.recv(_RECV_BYTES)
                if not data:
                    raise ConnectionError("server closed during handshake")
                decoder.feed(data)
                for frame in decoder.frames():
                    if frame.ftype == protocol.ERROR:
                        raise RemoteError(
                            frame.payload.get("code", "error"),
                            frame.payload.get("message", ""),
                        )
                    welcome = self._expect(frame, protocol.WELCOME)
                    break
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        self._reset_stream_state(welcome)

    def _send(self, ftype: int, payload: dict | None = None) -> None:
        self._send_raw(
            protocol.encode_frame(
                ftype, payload, max_frame_bytes=self._max_frame_bytes
            )
        )

    def _send_raw(self, data: bytes) -> None:
        self._ensure_usable()
        try:
            self._sock.sendall(data)
        except (ConnectionError, OSError) as error:
            self._sock.close()
            raise self._mark_dead(error) from error

    def _pump(self) -> None:
        """Read one chunk into the decoder, marking the client dead on
        any transport error (timeout included) so no later call ever
        reuses the poisoned socket."""
        self._ensure_usable()
        try:
            self._decode_chunk(self._sock.recv(_RECV_BYTES))
        except (ConnectionError, OSError) as error:
            if isinstance(error, ClientConnectionError):
                raise
            self._sock.close()
            raise self._mark_dead(error) from error

    def _recv_reply(self) -> Frame:
        """Next non-bookkeeping frame, reading from the socket as needed."""
        while True:
            frame = self._buffered_reply()
            if frame is not None:
                return frame
            self._pump()

    def _await_credit(self) -> None:
        while self.credits < 1:
            frame = self._buffered_reply()
            if frame is not None:
                raise RemoteError(
                    "unexpected-frame",
                    f"got {frame.name} while waiting for CREDIT",
                )
            self._pump()

    # -- reconnect / retry ---------------------------------------------------------

    def _reconnect(self) -> None:
        """Rebuild the connection with backoff; replay unacked batches."""
        last: BaseException | None = self._dead
        for attempt in range(self.retries):
            time.sleep(self._backoff_delay(attempt))
            try:
                self._connect()
            except (ConnectionError, OSError) as error:
                last = error
                continue
            self._dead = None
            self.reconnects += 1
            try:
                self._replay_unacked()
            except (ClientConnectionError, ConnectionError, OSError) as error:
                last = error
                continue
            return
        raise ClientConnectionError(
            f"reconnect to {self._host}:{self._port} failed after "
            f"{self.retries} attempt(s): {last}",
            last_error=last,
        )

    def _replay_unacked(self) -> None:
        """Re-send every unacknowledged batch once, in seq order.

        The fresh WELCOME granted a full credit window and at most
        ``window`` batches can be outstanding, so replay never waits for
        credit.  Batches acked on the old connection are never re-sent —
        at most once per batch relative to the server's restored state.
        """
        for seq, rows in list(self._unacked.items()):
            self.credits -= 1
            self._sent_on_conn.add(seq)
            self._outcomes[seq] = "replayed"
            self._send_raw(self._insert_frame(seq, rows))

    def _retrying(self, operation):
        """Run ``operation``, reconnecting across transport deaths."""
        attempts = 0
        while True:
            if self._dead is not None:
                if not self.auto_reconnect or self._closed:
                    raise self._dead
                self._reconnect()
            try:
                return operation()
            except ClientConnectionError:
                attempts += 1
                if not self.auto_reconnect or attempts > self.retries:
                    raise

    # -- protocol surface ----------------------------------------------------------

    @property
    def query_sql(self) -> str:
        return self.server_info.get("query", "")

    def insert(self, rows: list[tuple]) -> int:
        """Send one INSERT batch, honouring the credit window.

        Returns the batch's ``seq``.  With retries enabled the batch is
        delivered across reconnects (replayed only if unacknowledged);
        without, a transport error marks the client dead and raises.
        """
        seq, batch = self._register_batch(rows)

        def deliver() -> int:
            # Already acked (or replayed by a reconnect) — nothing to do.
            if seq not in self._unacked or seq in self._sent_on_conn:
                return seq
            self._await_credit()
            self.credits -= 1
            self._sent_on_conn.add(seq)
            self._send_raw(self._insert_frame(seq, batch))
            return seq

        return self._retrying(deliver)

    def append(self, row: tuple) -> int | None:
        """Buffer one row client-side; ship when ``batch_rows`` accumulate.

        Returns the shipped batch's seq when this append triggered a
        send, else ``None``.  :meth:`flush` ships any partial buffer
        first, so appended rows are never stranded.
        """
        self._row_buffer.append(tuple(row))
        if len(self._row_buffer) >= self.batch_rows:
            batch, self._row_buffer = self._row_buffer, []
            return self.insert(batch)
        return None

    def flush(self) -> dict:
        """Block until every in-flight INSERT has been acknowledged.

        Inserts pipeline up to the credit window, so a rejected batch
        raises :class:`RemoteError` on a *later* read; ``flush`` waits for
        all outstanding credits, surfacing any such error deterministically.

        Returns a report: ``{"outcomes": {seq: "acked" | "replayed"},
        "reconnects": total}`` covering every batch inserted since the
        previous flush — deterministic even across a server restart
        (``replayed`` batches were re-sent after a reconnect, everything
        else was acknowledged first try).
        """
        if self._row_buffer:
            batch, self._row_buffer = self._row_buffer, []
            self.insert(batch)

        def wait() -> None:
            while self.credits < self.window or self._unacked:
                frame = self._buffered_reply()
                if frame is not None:
                    raise RemoteError(
                        "unexpected-frame",
                        f"got {frame.name} while waiting for CREDIT",
                    )
                self._pump()

        self._retrying(wait)
        return self._flush_report()

    def heartbeat(self, row: tuple) -> None:
        """Send punctuation: advances event time without contributing data."""
        self._retrying(
            lambda: self._send(protocol.HEARTBEAT, {"row": list(row)})
        )

    def query(self) -> list[dict]:
        """Evaluate the continuous query over everything ingested so far."""

        def ask() -> list[dict]:
            self._send(protocol.QUERY)
            reply = self._expect(self._recv_reply(), protocol.RESULT)
            return protocol.decode_result_rows(reply.payload["rows"])

        return self._retrying(ask)

    def subscribe(self, interval_s: float, count: int | None = None) -> None:
        """Ask for periodic RESULT pushes; collect them via :meth:`results`.

        Subscriptions are per-connection state: a reconnect does not
        re-subscribe (re-issue :meth:`subscribe` after a retry if needed).
        """
        self._retrying(
            lambda: self._send(
                protocol.SUBSCRIBE, {"interval_s": interval_s, "count": count}
            )
        )

    def results(self, count: int) -> list[dict]:
        """Block until ``count`` subscription pushes have arrived."""
        collected: list[dict] = []
        while len(collected) < count:
            if not self.has_pushes():
                frame = self._buffered_reply()
                if frame is not None:
                    raise RemoteError(
                        "unexpected-frame",
                        f"got {frame.name} while waiting for pushes",
                    )
                self._pump()
            collected.extend(self.drain_pushes())
        return collected

    def checkpoint(self) -> dict:
        """Force a server-side checkpoint; returns ``{"path", "bytes"}``."""

        def ask() -> dict:
            self._send(protocol.CHECKPOINT)
            return self._expect(
                self._recv_reply(), protocol.CHECKPOINT_OK
            ).payload

        return self._retrying(ask)

    def stats(self) -> dict:
        """Server / backend / metrics statistics."""

        def ask() -> dict:
            self._send(protocol.STATS)
            return self._expect(self._recv_reply(), protocol.STATS_OK).payload

        return self._retrying(ask)

    def partials(self) -> list[bytes]:
        """The server backend's partial-state blobs (mergeable, exact).

        What a cluster coordinator fans out to every node and folds with
        :meth:`repro.parallel.worker.ShardPlan.fold`; the node keeps its
        state and keeps ingesting.
        """

        def ask() -> list[bytes]:
            self._send(protocol.PARTIALS)
            reply = self._expect(self._recv_reply(), protocol.PARTIALS_OK)
            return protocol.decode_blobs(reply.payload.get("blobs", []))

        return self._retrying(ask)

    def adopt(self, blobs: list[bytes]) -> int:
        """Fold foreign partial-state blobs into the server's backend.

        The shard-rebalance shipping path: blobs taken from one node
        (via :meth:`partials` or its on-disk checkpoint) merge exactly
        into another.  Returns the number of blobs adopted.
        """

        def ask() -> int:
            self._send(protocol.ADOPT, {"blobs": protocol.encode_blobs(blobs)})
            reply = self._expect(self._recv_reply(), protocol.ADOPT_OK)
            return int(reply.payload.get("adopted", 0))

        return self._retrying(ask)

    def close(self) -> dict:
        """Graceful BYE → GOODBYE; returns the connection totals.

        Idempotent and exception-free on a dead or already-closed
        transport (the :meth:`close_abruptly` contract): if the server
        dropped the connection first — idle timeout, restart — close
        simply releases the socket and returns ``{}``; repeated calls
        return the first result.
        """
        if self._closed:
            return self._close_info
        if self._dead is None:
            try:
                self._send(protocol.BYE)
                goodbye = self._expect(self._recv_reply(), protocol.GOODBYE)
                self._close_info = goodbye.payload
            except (ProtocolError, ClientConnectionError, ConnectionError,
                    OSError):
                self._close_info = {}
        self._closed = True
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - double close
            pass
        return self._close_info

    def close_abruptly(self) -> None:
        """Drop the socket with no BYE (tests: mid-stream disconnects)."""
        self._closed = True
        self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class AsyncServeClient(_ClientCore):
    """The same protocol surface on asyncio streams.

    Construct via :meth:`connect` (the handshake is async)::

        client = await AsyncServeClient.connect(host, port)
        await client.insert(rows)
        rows = await client.query()
        await client.close()

    Supports the same opt-in ``retries`` / backoff / seq-replay semantics
    as :class:`ServeClient`, with ``asyncio.sleep`` backoff.
    """

    def __init__(
        self,
        reader,
        writer,
        max_frame_bytes: int,
        *,
        retries: int = 0,
        backoff_s: float = 0.05,
        backoff_max_s: float = 2.0,
        jitter: bool = True,
        columnar: bool = True,
        batch_rows: int = 1024,
    ):
        super().__init__(
            max_frame_bytes,
            retries=retries,
            backoff_s=backoff_s,
            backoff_max_s=backoff_max_s,
            jitter=jitter,
            columnar=columnar,
            batch_rows=batch_rows,
        )
        self._reader = reader
        self._writer = writer
        self._host: str | None = None
        self._port: int | None = None
        self._schema_names: list | None = None

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        schema_names: list | None = None,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
        retries: int = 0,
        backoff_s: float = 0.05,
        backoff_max_s: float = 2.0,
        jitter: bool = True,
        columnar: bool = True,
        batch_rows: int = 1024,
    ) -> "AsyncServeClient":
        reader, writer = await asyncio.open_connection(host, port)
        client = cls(
            reader,
            writer,
            max_frame_bytes,
            retries=retries,
            backoff_s=backoff_s,
            backoff_max_s=backoff_max_s,
            jitter=jitter,
            columnar=columnar,
            batch_rows=batch_rows,
        )
        client._host = host
        client._port = port
        client._schema_names = schema_names
        try:
            await client._handshake()
        except RemoteError as error:
            writer.close()
            if (
                error.code != "wire-version"
                or client._prefer_version <= protocol.MIN_WIRE_VERSION
            ):
                raise
            # Pre-columnar server: redial on the row wire.
            client._prefer_version = protocol.MIN_WIRE_VERSION
            reader, writer = await asyncio.open_connection(host, port)
            client._reader, client._writer = reader, writer
            try:
                await client._handshake()
            except BaseException:
                writer.close()
                raise
        except BaseException:
            writer.close()
            raise
        return client

    async def _handshake(self) -> None:
        self._writer.write(
            protocol.encode_frame(
                protocol.HELLO,
                self._hello_payload(self._schema_names),
                max_frame_bytes=self._max_frame_bytes,
            )
        )
        await self._writer.drain()
        decoder = FrameDecoder(self._max_frame_bytes)
        welcome = None
        while welcome is None:
            data = await self._reader.read(_RECV_BYTES)
            if not data:
                raise ConnectionError("server closed during handshake")
            decoder.feed(data)
            for frame in decoder.frames():
                if frame.ftype == protocol.ERROR:
                    raise RemoteError(
                        frame.payload.get("code", "error"),
                        frame.payload.get("message", ""),
                    )
                welcome = self._expect(frame, protocol.WELCOME)
                break
        self._reset_stream_state(welcome)

    # -- transport -----------------------------------------------------------------

    async def _send(self, ftype: int, payload: dict | None = None) -> None:
        await self._send_raw(
            protocol.encode_frame(
                ftype, payload, max_frame_bytes=self._max_frame_bytes
            )
        )

    async def _send_raw(self, data: bytes) -> None:
        self._ensure_usable()
        try:
            self._writer.write(data)
            await self._writer.drain()
        except (ConnectionError, OSError) as error:
            self._writer.close()
            raise self._mark_dead(error) from error

    async def _pump(self) -> None:
        self._ensure_usable()
        try:
            self._decode_chunk(await self._reader.read(_RECV_BYTES))
        except (ConnectionError, OSError) as error:
            if isinstance(error, ClientConnectionError):
                raise
            self._writer.close()
            raise self._mark_dead(error) from error

    async def _recv_reply(self) -> Frame:
        while True:
            frame = self._buffered_reply()
            if frame is not None:
                return frame
            await self._pump()

    async def _await_credit(self) -> None:
        while self.credits < 1:
            frame = self._buffered_reply()
            if frame is not None:
                raise RemoteError(
                    "unexpected-frame",
                    f"got {frame.name} while waiting for CREDIT",
                )
            await self._pump()

    # -- reconnect / retry ---------------------------------------------------------

    async def _reconnect(self) -> None:
        last: BaseException | None = self._dead
        for attempt in range(self.retries):
            await asyncio.sleep(self._backoff_delay(attempt))
            try:
                reader, writer = await asyncio.open_connection(
                    self._host, self._port
                )
            except (ConnectionError, OSError) as error:
                last = error
                continue
            self._reader, self._writer = reader, writer
            try:
                await self._handshake()
            except RemoteError as error:
                writer.close()
                if (
                    error.code == "wire-version"
                    and self._prefer_version > protocol.MIN_WIRE_VERSION
                ):
                    self._prefer_version = protocol.MIN_WIRE_VERSION
                    last = error
                    continue
                raise
            except (ConnectionError, OSError) as error:
                writer.close()
                last = error
                continue
            self._dead = None
            self.reconnects += 1
            try:
                await self._replay_unacked()
            except (ClientConnectionError, ConnectionError, OSError) as error:
                last = error
                continue
            return
        raise ClientConnectionError(
            f"reconnect to {self._host}:{self._port} failed after "
            f"{self.retries} attempt(s): {last}",
            last_error=last,
        )

    async def _replay_unacked(self) -> None:
        for seq, rows in list(self._unacked.items()):
            self.credits -= 1
            self._sent_on_conn.add(seq)
            self._outcomes[seq] = "replayed"
            await self._send_raw(self._insert_frame(seq, rows))

    async def _retrying(self, operation):
        attempts = 0
        while True:
            if self._dead is not None:
                if not self.auto_reconnect or self._closed:
                    raise self._dead
                await self._reconnect()
            try:
                return await operation()
            except ClientConnectionError:
                attempts += 1
                if not self.auto_reconnect or attempts > self.retries:
                    raise

    # -- protocol surface ----------------------------------------------------------

    async def insert(self, rows: list[tuple]) -> int:
        """Send one INSERT batch, honouring the credit window."""
        seq, batch = self._register_batch(rows)

        async def deliver() -> int:
            if seq not in self._unacked or seq in self._sent_on_conn:
                return seq
            await self._await_credit()
            self.credits -= 1
            self._sent_on_conn.add(seq)
            await self._send_raw(self._insert_frame(seq, batch))
            return seq

        return await self._retrying(deliver)

    async def append(self, row: tuple) -> int | None:
        """Async twin of :meth:`ServeClient.append` (client-side batching)."""
        self._row_buffer.append(tuple(row))
        if len(self._row_buffer) >= self.batch_rows:
            batch, self._row_buffer = self._row_buffer, []
            return await self.insert(batch)
        return None

    async def flush(self) -> dict:
        """Async twin of :meth:`ServeClient.flush` (same outcome report)."""
        if self._row_buffer:
            batch, self._row_buffer = self._row_buffer, []
            await self.insert(batch)

        async def wait() -> None:
            while self.credits < self.window or self._unacked:
                frame = self._buffered_reply()
                if frame is not None:
                    raise RemoteError(
                        "unexpected-frame",
                        f"got {frame.name} while waiting for CREDIT",
                    )
                await self._pump()

        await self._retrying(wait)
        return self._flush_report()

    async def heartbeat(self, row: tuple) -> None:
        """Send punctuation: advances event time without contributing data."""

        async def send() -> None:
            await self._send(protocol.HEARTBEAT, {"row": list(row)})

        await self._retrying(send)

    async def query(self) -> list[dict]:
        """Evaluate the continuous query over everything ingested so far."""

        async def ask() -> list[dict]:
            await self._send(protocol.QUERY)
            reply = self._expect(await self._recv_reply(), protocol.RESULT)
            return protocol.decode_result_rows(reply.payload["rows"])

        return await self._retrying(ask)

    async def subscribe(
        self, interval_s: float, count: int | None = None
    ) -> None:
        """Ask for periodic RESULT pushes; collect them via :meth:`results`."""

        async def send() -> None:
            await self._send(
                protocol.SUBSCRIBE, {"interval_s": interval_s, "count": count}
            )

        await self._retrying(send)

    async def results(self, count: int) -> list[dict]:
        """Block until ``count`` subscription pushes have arrived."""
        collected: list[dict] = []
        while len(collected) < count:
            if not self.has_pushes():
                frame = self._buffered_reply()
                if frame is not None:
                    raise RemoteError(
                        "unexpected-frame",
                        f"got {frame.name} while waiting for pushes",
                    )
                await self._pump()
            collected.extend(self.drain_pushes())
        return collected

    async def checkpoint(self) -> dict:
        """Force a server-side checkpoint; returns ``{"path", "bytes"}``."""

        async def ask() -> dict:
            await self._send(protocol.CHECKPOINT)
            return self._expect(
                await self._recv_reply(), protocol.CHECKPOINT_OK
            ).payload

        return await self._retrying(ask)

    async def stats(self) -> dict:
        """Server / backend / metrics statistics."""

        async def ask() -> dict:
            await self._send(protocol.STATS)
            return self._expect(
                await self._recv_reply(), protocol.STATS_OK
            ).payload

        return await self._retrying(ask)

    async def close(self) -> dict:
        """Graceful BYE → GOODBYE; returns the connection totals.

        Idempotent and exception-free on a dead transport, like
        :meth:`ServeClient.close`.
        """
        if self._closed:
            return self._close_info
        if self._dead is None:
            try:
                await self._send(protocol.BYE)
                goodbye = self._expect(
                    await self._recv_reply(), protocol.GOODBYE
                )
                self._close_info = goodbye.payload
            except (ProtocolError, ClientConnectionError, ConnectionError,
                    OSError):
                self._close_info = {}
        self._closed = True
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (OSError, ConnectionError):  # pragma: no cover
            pass
        return self._close_info
