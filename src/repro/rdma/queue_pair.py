"""Reliable-connection queue pairs: the RDMA data path.

The data path is a chain of timeout callbacks, not processes.  Each
stage of a work request (WR) is one pooled ``env.timeout()`` whose
value is the WR's :class:`_WireOp`; when it fires, :func:`_resume` runs
the next stage, which either arms the following timeout or, when that
wait would be zero, runs the stage after it at once.

* **Requester.**  ``post_send`` appends to the send queue.  The NIC
  initiates one WR at a time (``nic_tx``, plus a PCIe DMA fetch for
  non-inline payloads), which preserves RC ordering on the FIFO fabric
  links; when a WR's initiation ends its delivery starts and the next
  queued WR is armed, so deliveries pipeline and back-to-back large
  writes saturate the link.
* **Delivery.**  Each leg draws the fault penalty, books the egress
  link (head arrival), then the ingress link (last byte in), then pays
  ``nic_rx``.  READ and atomic responses travel back the same way; other
  WRs are acknowledged after ``ack_delay_ns``, a wait that is skipped for
  unsignaled successful WRs because nothing can observe it.
* **Responder.**  :meth:`QueuePair._respond` validates rkey, bounds and
  access and either executes the operation or NAKs, driving the
  requester QP into the error state exactly as hardware would.  Its two
  waits, the receiver-not-ready retry timer and atomic execution, are
  callback stages too.

Every stage arms its timeout at the simulated instant a process per
WR would yield it; such a pipeline only adds zero-delay bookkeeping
events (send-queue put/get, process start and exit).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.rdma.constants import ATOMIC_SIZE, Access, Opcode, QPState, WCOpcode, WCStatus
from repro.rdma.completion import CompletionQueue, WorkCompletion
from repro.rdma.errors import QPStateError, RdmaError
from repro.rdma.memory import SHADOW_BYTES
from repro.rdma.verbs import RecvWR, SendWR

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.rdma.device import NIC
    from repro.rdma.fabric import _Path
    from repro.rdma.memory import ProtectionDomain
    from repro.sim.events import Event


@dataclass(slots=True)
class _WireOp:
    """One work request in flight: what crosses the fabric, and where."""

    wr: SendWR
    #: Payload bytes -- a zero-copy memoryview over the (stable, per the
    #: verbs contract) source buffer -- or None when the source is virtual.
    payload: Optional[memoryview]
    nbytes: int
    #: Shadow prefix of a virtual source (control headers survive).
    prefix: Optional[bytes]
    #: Responder QP, fixed when delivery starts.
    remote: "QueuePair"
    #: The leg on the wire: route, bytes, and whether it is the
    #: READ/atomic response travelling back to the requester.
    path: "_Path" = None  # type: ignore[assignment]
    size: int = 0
    response: bool = False
    #: Receiver-not-ready retries left.
    rnr_left: int = 0
    #: The stage :func:`_resume` runs when the armed timeout fires.
    stage: Callable[["_WireOp"], None] = None  # type: ignore[assignment]


def _resume(event: "Event") -> None:
    """Timeout callback: run the stage its work request waited for."""
    op = event._value
    op.stage(op)


_SEND_OPCODE_TO_WC = {
    Opcode.SEND: WCOpcode.SEND,
    Opcode.SEND_WITH_IMM: WCOpcode.SEND,
    Opcode.RDMA_WRITE: WCOpcode.RDMA_WRITE,
    Opcode.RDMA_WRITE_WITH_IMM: WCOpcode.RDMA_WRITE,
    Opcode.RDMA_READ: WCOpcode.RDMA_READ,
    Opcode.ATOMIC_FETCH_ADD: WCOpcode.FETCH_ADD,
    Opcode.ATOMIC_CMP_SWP: WCOpcode.COMP_SWAP,
}

#: The access flag the responder MR must grant, per rkey opcode.
_REMOTE_ACCESS = {
    Opcode.RDMA_WRITE: Access.REMOTE_WRITE,
    Opcode.RDMA_WRITE_WITH_IMM: Access.REMOTE_WRITE,
    Opcode.RDMA_READ: Access.REMOTE_READ,
    Opcode.ATOMIC_FETCH_ADD: Access.REMOTE_ATOMIC,
    Opcode.ATOMIC_CMP_SWP: Access.REMOTE_ATOMIC,
}


class QueuePair:
    """One endpoint of a reliable connection."""

    def __init__(
        self,
        nic: "NIC",
        qpn: int,
        pd: "ProtectionDomain",
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        *,
        max_inline_data: Optional[int] = None,
        rnr_retry: int = 7,
        max_send_wr: int = 1_024,
    ) -> None:
        self.nic = nic
        self.env = nic.env
        self.qpn = qpn
        self.pd = pd
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.state = QPState.RESET
        self.max_inline_data = (
            nic.model.max_inline_data if max_inline_data is None else max_inline_data
        )
        self.rnr_retry = rnr_retry
        self.max_send_wr = max_send_wr
        self.remote: Optional["QueuePair"] = None
        #: Cached fabric routes, resolved per connected peer.
        self._cached_remote: Optional["QueuePair"] = None
        self._path_fwd: Optional["_Path"] = None
        self._path_rev: Optional["_Path"] = None
        self._recv_queue: deque[RecvWR] = deque()
        #: WRs posted but not yet initiated (what ``max_send_wr`` bounds);
        #: the one in ``nic_tx`` has already left the queue.
        self._send_queue: deque[SendWR] = deque()
        self._tx_busy = False
        #: Statistics.
        self.bytes_sent = 0
        self.ops_posted = 0

    # -- state management ------------------------------------------------

    def modify(self, state: QPState) -> None:
        """Transition the QP (simplified legal-path check)."""
        legal = {
            QPState.RESET: {QPState.INIT, QPState.ERR},
            QPState.INIT: {QPState.RTR, QPState.ERR, QPState.RESET},
            QPState.RTR: {QPState.RTS, QPState.ERR, QPState.RESET},
            QPState.RTS: {QPState.ERR, QPState.RESET},
            QPState.ERR: {QPState.RESET},
        }
        if state not in legal[self.state]:
            raise QPStateError(f"illegal transition {self.state} -> {state}")
        self.state = state
        if state is QPState.ERR:
            self._flush()
        if state is QPState.RESET:
            self.remote = None

    @staticmethod
    def connect_pair(a: "QueuePair", b: "QueuePair") -> None:
        """Out-of-band connection setup (what the CM handshake performs)."""
        for qp in (a, b):
            if qp.state is not QPState.RESET:
                raise QPStateError(f"QP {qp.qpn} not in RESET")
        a.remote, b.remote = b, a
        for qp in (a, b):
            qp.modify(QPState.INIT)
            qp.modify(QPState.RTR)
            qp.modify(QPState.RTS)

    @property
    def connected(self) -> bool:
        return self.remote is not None and self.state is QPState.RTS

    def _flush(self) -> None:
        """Flush posted receives with WR_FLUSH_ERR, as hardware does."""
        flushed, self._recv_queue = self._recv_queue, deque()
        for wr in flushed:
            self.recv_cq.push(
                WorkCompletion(
                    wr_id=wr.wr_id,
                    opcode=WCOpcode.RECV,
                    status=WCStatus.WR_FLUSH_ERR,
                    qp_num=self.qpn,
                )
            )

    # -- posting -----------------------------------------------------------

    def post_recv(self, wr: RecvWR) -> None:
        # Real verbs requires INIT+; we also accept RESET because the
        # simulated CM moves RESET->RTS atomically at accept time and
        # servers pre-post receives before the client connects.
        if self.state is QPState.ERR:
            raise QPStateError(f"cannot post receive in state {self.state}")
        wr.validate()
        self._recv_queue.append(wr)

    def post_send(self, wr: SendWR) -> None:
        """Queue a work request on the NIC's per-QP send pipeline."""
        if self.state is not QPState.RTS:
            raise QPStateError(f"cannot post send in state {self.state}")
        if self.remote is None:
            raise QPStateError("QP has no connected peer")
        wr.validate(self.max_inline_data)
        if wr.opcode.is_atomic and wr.local is not None and wr.local.mr.block.is_virtual:
            raise RdmaError("atomic result buffers must be real memory")
        if len(self._send_queue) >= self.max_send_wr:
            # ibv_post_send returns ENOMEM when the SQ is full.
            raise RdmaError(f"send queue full (max_send_wr={self.max_send_wr})")
        self.ops_posted += 1
        if self._tx_busy:
            self._send_queue.append(wr)
        else:
            self._initiate(wr)

    # -- requester pipeline --------------------------------------------------

    def _initiate(self, wr: SendWR) -> None:
        """Occupy the NIC send pipeline with *wr* for ``nic_tx`` (+ DMA)."""
        model = self.nic.model
        cost = model.nic_tx_ns
        # Non-inline payloads need a PCIe DMA fetch.
        nbytes = wr.nbytes
        if (
            not (wr.inline and nbytes <= self.max_inline_data)
            and nbytes > 0
            and wr.opcode is not Opcode.RDMA_READ
        ):
            cost += model.pcie_dma_fetch_ns
        self._tx_busy = True
        self.env.timeout(cost, wr).callbacks.append(self._initiated)

    def _initiated(self, event: "Event") -> None:
        """The WR left the send pipeline: put it on the wire, arm the next."""
        wr: SendWR = event._value
        payload: Optional[memoryview] = None
        prefix: Optional[bytes] = None
        nbytes = wr.nbytes
        opcode = wr.opcode
        if opcode.is_atomic:
            nbytes = ATOMIC_SIZE
        elif opcode is not Opcode.RDMA_READ and wr.local is not None and nbytes > 0:
            if not wr.local.mr.block.is_virtual:
                # Zero-copy: reference the source buffer instead of
                # materializing it.  The verbs contract (the buffer
                # is stable until the send completes) makes this
                # equivalent to the DMA-fetch-time copy it replaces.
                payload = wr.local.mr.view(wr.local.offset, nbytes)
            else:
                prefix = wr.local.mr.read(wr.local.offset, min(nbytes, SHADOW_BYTES))
        self.bytes_sent += nbytes
        remote = self.remote
        if remote is None:  # connection torn down mid-flight
            self._complete_send(wr, WCStatus.WR_FLUSH_ERR)
        else:
            if remote is not self._cached_remote:
                # Resolve both directions once per peer; reconnecting to
                # a different QP (identity check) re-resolves.
                fabric = self.nic.fabric
                self._path_fwd = fabric.path(self.nic.name, remote.nic.name)
                self._path_rev = fabric.path(remote.nic.name, self.nic.name)
                self._cached_remote = remote
            op = _WireOp(wr, payload, nbytes, prefix, remote)
            self._transfer(op, self._path_fwd, 0 if opcode is Opcode.RDMA_READ else nbytes)

        queue = self._send_queue
        while queue:
            wr = queue.popleft()
            if self.state is QPState.RTS:
                self._initiate(wr)
                return
            self._complete_send(wr, WCStatus.WR_FLUSH_ERR)
        self._tx_busy = False

    def _wait(self, delay: int, stage: Callable[[_WireOp], None], op: _WireOp) -> None:
        """Run ``stage(op)`` *delay* ns from now."""
        op.stage = stage
        self.env.timeout(delay, op).callbacks.append(_resume)

    # -- the wire (both directions) -------------------------------------------

    def _transfer(self, op: _WireOp, path: "_Path", size: int) -> None:
        """Start one leg; its fault-penalty draw comes before any link booking."""
        op.path = path
        op.size = size
        penalty = self.nic.fabric.fault_penalty_ns()
        if penalty:
            # The requester sits out the retransmission timeout.
            self._wait(penalty, self._egress, op)
        else:
            self._egress(op)

    def _egress(self, op: _WireOp) -> None:
        delay = self.nic.fabric.egress_ns(op.path, op.size)
        if op.path.loopback:
            self._wait(delay, self._landed, op)
        elif delay > 0:
            self._wait(delay, self._ingress, op)
        else:
            self._ingress(op)

    def _ingress(self, op: _WireOp) -> None:
        delay = self.nic.fabric.ingress_ns(op.path, op.size)
        if delay > 0:
            self._wait(delay, self._landed, op)
        else:
            self._landed(op)

    def _landed(self, op: _WireOp) -> None:
        """Last byte at the receiving NIC: pay ``nic_rx``, then hand over."""
        self._wait(self.nic.model.nic_rx_ns, self._succeed if op.response else self._respond, op)

    # -- responder ------------------------------------------------------------

    def _respond(self, op: _WireOp) -> None:
        """Execute *op* at the responder, then resume the requester."""
        remote = op.remote
        if remote.state is not QPState.RTS:
            self._fail_send(op.wr, WCStatus.RETRY_EXC_ERR)
            return
        wr = op.wr
        opcode = wr.opcode
        if opcode.needs_remote_key:
            mr = remote.nic.lookup_rkey(wr.rkey)
            if (
                mr is None
                or not mr.allows(_REMOTE_ACCESS[opcode])
                or not mr.in_bounds(wr.remote_addr, op.nbytes)
            ):
                remote.modify(QPState.ERR)
                self._responded(op, WCStatus.REM_ACCESS_ERR)
                return

        if opcode.consumes_recv_wr:
            op.rnr_left = self.rnr_retry
            self._claim_recv(op)
        elif opcode is Opcode.RDMA_WRITE:
            self._store_remote(op, remote)
            self._responded(op, WCStatus.SUCCESS)
        elif opcode is Opcode.RDMA_READ:
            if not mr.block.is_virtual and wr.local is not None and not wr.local.mr.block.is_virtual:
                # Zero-copy: the write happens at the same instant the
                # view is taken, so aliasing is safe (and a same-block
                # overlap is handled inside MemoryBlock.write).
                wr.local.mr.write(wr.local.offset, mr.block.view(wr.remote_addr, op.nbytes))
            self._responded(op, WCStatus.SUCCESS)
        elif opcode.is_atomic:
            self._wait(self.nic.model.atomic_exec_ns, self._execute_atomic, op)
        else:  # pragma: no cover
            raise RdmaError(f"unhandled opcode {opcode}")

    def _claim_recv(self, op: _WireOp) -> None:
        """Consume a posted receive, honoring RNR retry semantics."""
        remote = op.remote
        if not remote._recv_queue:
            if op.rnr_left:
                op.rnr_left -= 1
                self._wait(remote.nic.model.rnr_timer_ns, self._claim_recv, op)
            else:
                self._responded(op, WCStatus.RNR_RETRY_EXC_ERR)
            return
        recv_wr = remote._recv_queue.popleft()
        wr = op.wr
        if wr.opcode is Opcode.RDMA_WRITE_WITH_IMM:
            # The data goes to the rkey target, not the receive buffer.
            self._store_remote(op, remote)
            wc_opcode = WCOpcode.RECV_RDMA_WITH_IMM
        else:
            if op.nbytes > recv_wr.local.nbytes:
                remote.recv_cq.push(
                    WorkCompletion(
                        wr_id=recv_wr.wr_id,
                        opcode=WCOpcode.RECV,
                        status=WCStatus.LOC_LEN_ERR,
                        qp_num=remote.qpn,
                    )
                )
                remote.modify(QPState.ERR)
                self._responded(op, WCStatus.REM_INV_REQ_ERR)
                return
            data = op.payload if op.payload is not None else op.prefix
            if data is not None:
                recv_wr.local.mr.write(recv_wr.local.offset, data)
            wc_opcode = WCOpcode.RECV
        remote.recv_cq.push(
            WorkCompletion(
                wr_id=recv_wr.wr_id,
                opcode=wc_opcode,
                byte_len=op.nbytes,
                imm_data=wr.imm_data,
                qp_num=remote.qpn,
            )
        )
        self._responded(op, WCStatus.SUCCESS)

    def _execute_atomic(self, op: _WireOp) -> None:
        wr = op.wr
        remote = op.remote
        mr = remote.nic.lookup_rkey(wr.rkey)
        assert mr is not None
        if mr.block.is_virtual:
            remote.modify(QPState.ERR)
            self._responded(op, WCStatus.REM_ACCESS_ERR)
            return
        old = mr.block.read_u64(wr.remote_addr)
        if wr.opcode is Opcode.ATOMIC_FETCH_ADD:
            mr.block.write_u64(wr.remote_addr, old + wr.compare_add)
        elif old == wr.compare_add:  # compare-and-swap
            mr.block.write_u64(wr.remote_addr, wr.swap)
        if wr.local is not None:
            wr.local.mr.write(wr.local.offset, old.to_bytes(8, "little"))
        self._responded(op, WCStatus.SUCCESS)

    @staticmethod
    def _store_remote(op: _WireOp, remote: "QueuePair") -> None:
        mr = remote.nic.lookup_rkey(op.wr.rkey)
        assert mr is not None
        data = op.payload if op.payload is not None else op.prefix
        if data is not None:
            mr.block.write(op.wr.remote_addr, data)

    # -- completions -----------------------------------------------------------

    def _responded(self, op: _WireOp, status: WCStatus) -> None:
        """The responder's verdict reaches the requester: NAK, response or ACK."""
        wr = op.wr
        if status is not WCStatus.SUCCESS:
            self._fail_send(wr, status)
        elif wr.opcode.has_response_data:
            # READ/atomic response carries data back to the requester.
            op.response = True
            self._transfer(op, self._path_rev, op.nbytes)
        elif wr.signaled:
            # Transport ACK (does not occupy data links).  An unsignaled
            # WR's ACK would complete nothing, so it gets no timer.
            self._wait(self.nic.model.ack_delay_ns, self._succeed, op)

    def _succeed(self, op: _WireOp) -> None:
        self._complete_send(op.wr, WCStatus.SUCCESS)

    def _complete_send(self, wr: SendWR, status: WCStatus) -> None:
        if not wr.signaled and status is WCStatus.SUCCESS:
            return
        self.send_cq.push(
            WorkCompletion(
                wr_id=wr.wr_id,
                opcode=_SEND_OPCODE_TO_WC[wr.opcode],
                status=status,
                byte_len=wr.nbytes,
                qp_num=self.qpn,
            )
        )

    def _fail_send(self, wr: SendWR, status: WCStatus) -> None:
        """Error completion + requester QP to ERR (flushing receives)."""
        self._complete_send(wr, status)
        if self.state is not QPState.ERR:
            self.modify(QPState.ERR)

    def __repr__(self) -> str:
        return f"<QueuePair qpn={self.qpn} state={self.state.value} nic={self.nic.name}>"
