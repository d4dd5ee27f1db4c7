"""Golden verbs timings: simulated completion ns and CQE fields per QP path.

``tests/test_determinism.py`` only compares two runs of the same code.
These pins compare against recorded values, so a change to the data
path's stage order, timeouts or tie-breaking shows up here even when
it is self-consistent.  Every CQE is pinned as ``(cq, timestamp,
wr_id, status, opcode, byte_len, imm_data)``, in the order each CQ
received it.
"""

from __future__ import annotations

import pytest

from repro.experiments.registry import run_experiment
from repro.rdma import (
    Access,
    Fabric,
    Opcode,
    QPState,
    QueuePair,
    RdmaError,
    RecvWR,
    SendWR,
    sge,
)
from repro.rdma.fabric import FaultModel
from repro.sim import Environment


class _Host:
    def __init__(self, fabric: Fabric, name: str, mr_size: int = 1 << 17) -> None:
        self.nic = fabric.nic(name) if name in fabric.names() else fabric.attach(name)
        self.pd = self.nic.create_pd()
        self.mr = self.pd.register(self.nic.alloc(mr_size), Access.all())
        self.cq = self.nic.create_cq()

    def qp(self, **kwargs) -> QueuePair:
        return self.nic.create_qp(self.pd, self.cq, **kwargs)


def _pair(fabric: Fabric, a: str = "a", b: str = "b", **qp_kwargs):
    host_a, host_b = _Host(fabric, a), _Host(fabric, b)
    qp_a, qp_b = host_a.qp(**qp_kwargs), host_b.qp()
    QueuePair.connect_pair(qp_a, qp_b)
    return host_a, host_b, qp_a, qp_b


def _cqes(*hosts: _Host) -> list[tuple]:
    out = []
    for host in hosts:
        for wc in host.cq.poll(1 << 12):
            out.append(
                (
                    host.cq.name,
                    wc.timestamp,
                    wc.wr_id,
                    wc.status.name,
                    wc.opcode.name,
                    wc.byte_len,
                    wc.imm_data,
                )
            )
    return out


def _write(src: _Host, dst: _Host, nbytes: int, wr_id: int, **kwargs) -> SendWR:
    return SendWR(
        opcode=kwargs.pop("opcode", Opcode.RDMA_WRITE),
        local=sge(src.mr, 0, nbytes),
        remote_addr=dst.mr.addr + kwargs.pop("remote_offset", 0),
        rkey=kwargs.pop("rkey", dst.mr.rkey),
        wr_id=wr_id,
        **kwargs,
    )


def _post_at(env: Environment, at: int, qp: QueuePair, wrs: list[SendWR]) -> None:
    def poster():
        yield env.timeout(at)
        for wr in wrs:
            qp.post_send(wr)

    env.process(poster())


# -- scenarios ------------------------------------------------------------


def scenario_send():
    env = Environment()
    fabric = Fabric(env)
    a, b, qp_a, qp_b = _pair(fabric)
    a.mr.write(0, b"s" * 256)
    for wr_id in (10, 11):
        qp_b.post_recv(RecvWR(local=sge(b.mr, 4096 * (wr_id - 9), 4096), wr_id=wr_id))
    _post_at(
        env,
        1_000,
        qp_a,
        [
            SendWR(opcode=Opcode.SEND, local=sge(a.mr, 0, 256), wr_id=1),
            SendWR(
                opcode=Opcode.SEND_WITH_IMM,
                local=sge(a.mr, 0, 32),
                imm_data=0xBEEF,
                inline=True,
                wr_id=2,
            ),
        ],
    )
    env.run()
    assert b.mr.read(4096, 256) == b"s" * 256
    return _cqes(a, b)


def scenario_write():
    """Signaled, inline and unsignaled writes; the unsignaled one has no
    CQE, so the ns its bytes land at is pinned instead."""
    env = Environment()
    fabric = Fabric(env)
    a, b, qp_a, _ = _pair(fabric)
    a.mr.write(0, b"w" * 1024)
    _post_at(
        env,
        500,
        qp_a,
        [
            _write(a, b, 1024, 1),
            _write(a, b, 64, 2, inline=True),
            _write(a, b, 1024, 3, signaled=False, remote_offset=8192),
            _write(a, b, 1024, 4, remote_offset=16384),
        ],
    )
    landed = []

    def watcher():
        while b.mr.read(8192, 1) != b"w":
            yield env.timeout(1)
        landed.append(env.now)

    env.process(watcher())
    env.run()
    return landed + _cqes(a, b)


def scenario_imm_read_atomics():
    env = Environment()
    fabric = Fabric(env)
    a, b, qp_a, qp_b = _pair(fabric)
    a.mr.write(0, b"i" * 512)
    b.mr.write(32768, b"r" * 2048)
    b.mr.block.write_u64(b.mr.addr + 65536, 40)
    b.mr.block.write_u64(b.mr.addr + 65544, 7)
    qp_b.post_recv(RecvWR(local=sge(b.mr, 0, 16), wr_id=20))
    _post_at(
        env,
        2_000,
        qp_a,
        [
            _write(a, b, 512, 1, opcode=Opcode.RDMA_WRITE_WITH_IMM, imm_data=77),
            SendWR(
                opcode=Opcode.RDMA_READ,
                local=sge(a.mr, 4096, 2048),
                remote_addr=b.mr.addr + 32768,
                rkey=b.mr.rkey,
                wr_id=2,
            ),
            SendWR(
                opcode=Opcode.ATOMIC_FETCH_ADD,
                local=sge(a.mr, 8192, 8),
                remote_addr=b.mr.addr + 65536,
                rkey=b.mr.rkey,
                compare_add=2,
                wr_id=3,
            ),
            SendWR(
                opcode=Opcode.ATOMIC_CMP_SWP,
                local=sge(a.mr, 8200, 8),
                remote_addr=b.mr.addr + 65544,
                rkey=b.mr.rkey,
                compare_add=7,
                swap=99,
                wr_id=4,
            ),
        ],
    )
    env.run()
    assert a.mr.read(4096, 2048) == b"r" * 2048
    assert b.mr.block.read_u64(b.mr.addr + 65536) == 42
    assert b.mr.block.read_u64(b.mr.addr + 65544) == 99
    assert a.mr.block.read_u64(a.mr.addr + 8192) == 40
    assert a.mr.block.read_u64(a.mr.addr + 8200) == 7
    return _cqes(a, b)


def scenario_loopback():
    env = Environment()
    fabric = Fabric(env)
    a, b, qp_a, qp_b = _pair(fabric, "a", "a")
    a.mr.write(0, b"l" * 4096)
    qp_b.post_recv(RecvWR(local=sge(b.mr, 0, 4096), wr_id=30))
    _post_at(
        env,
        100,
        qp_a,
        [
            _write(a, b, 4096, 1, remote_offset=8192),
            SendWR(opcode=Opcode.SEND, local=sge(a.mr, 0, 100), wr_id=2),
        ],
    )
    env.run()
    return _cqes(a, b)


def scenario_rnr():
    """One SEND rescued by a late receive, one exhausting its retries."""
    env = Environment()
    fabric = Fabric(env)
    a, b, qp_a, qp_b = _pair(fabric, rnr_retry=2)
    a2, b2, qp_a2, _ = _pair(fabric, "c", "d", rnr_retry=2)
    _post_at(env, 0, qp_a, [SendWR(opcode=Opcode.SEND, local=sge(a.mr, 0, 64), wr_id=1)])
    _post_at(env, 0, qp_a2, [SendWR(opcode=Opcode.SEND, local=sge(a2.mr, 0, 64), wr_id=2)])

    def late_recv():
        yield env.timeout(15_000)
        qp_b.post_recv(RecvWR(local=sge(b.mr, 0, 64), wr_id=40))

    env.process(late_recv())
    env.run()
    assert qp_a2.state is QPState.ERR
    return _cqes(a, b, a2, b2)


def scenario_errors():
    """REM_ACCESS_ERR (bad rkey) and LOC_LEN_ERR (receive too small)."""
    env = Environment()
    fabric = Fabric(env)
    a, b, qp_a, qp_b = _pair(fabric)
    a2, b2, qp_a2, qp_b2 = _pair(fabric, "c", "d")
    qp_b2.post_recv(RecvWR(local=sge(b2.mr, 0, 16), wr_id=50))
    qp_b2.post_recv(RecvWR(local=sge(b2.mr, 16, 16), wr_id=51))
    _post_at(env, 0, qp_a, [_write(a, b, 64, 1, rkey=b.mr.rkey + 1000)])
    _post_at(env, 0, qp_a2, [SendWR(opcode=Opcode.SEND, local=sge(a2.mr, 0, 64), wr_id=2)])
    env.run()
    assert qp_a.state is QPState.ERR and qp_b.state is QPState.ERR
    return _cqes(a, b, a2, b2)


def scenario_send_queue_full():
    env = Environment()
    fabric = Fabric(env)
    a, b, qp_a, _ = _pair(fabric, max_send_wr=2)
    accepted = []

    def poster():
        yield env.timeout(50)
        for wr_id in range(1, 6):
            try:
                qp_a.post_send(_write(a, b, 256, wr_id))
            except RdmaError:
                accepted.append(("full", wr_id, env.now))
        yield env.timeout(3_000)
        qp_a.post_send(_write(a, b, 256, 9))

    env.process(poster())
    env.run()
    return accepted + _cqes(a, b)


def scenario_flush_on_err():
    """A bad rkey moves the QP to ERR; WRs still queued are flushed."""
    env = Environment()
    fabric = Fabric(env)
    a, b, qp_a, qp_b = _pair(fabric)
    qp_a.post_recv(RecvWR(local=sge(a.mr, 0, 64), wr_id=60))
    wrs = [_write(a, b, 64, 1, rkey=b.mr.rkey + 1000)]
    wrs += [_write(a, b, 64, wr_id) for wr_id in range(2, 7)]
    _post_at(env, 0, qp_a, wrs)
    env.run()
    return _cqes(a, b)


def scenario_faults():
    env = Environment()
    fabric = Fabric(env, faults=FaultModel(probability=0.3, retransmit_delay_ns=7_000, seed=9))
    a, b, qp_a, qp_b = _pair(fabric)
    for wr_id in range(20, 26):
        qp_b.post_recv(RecvWR(local=sge(b.mr, 0, 4096), wr_id=wr_id))
    wrs = []
    for wr_id in range(1, 13):
        if wr_id % 3 == 0:
            wrs.append(SendWR(opcode=Opcode.SEND, local=sge(a.mr, 0, 300), wr_id=wr_id))
        elif wr_id % 3 == 1:
            wrs.append(_write(a, b, 8192, wr_id))
        else:
            wrs.append(
                SendWR(
                    opcode=Opcode.RDMA_READ,
                    local=sge(a.mr, 0, 1024),
                    remote_addr=b.mr.addr,
                    rkey=b.mr.rkey,
                    wr_id=wr_id,
                )
            )
    _post_at(env, 0, qp_a, wrs)
    env.run()
    return [fabric.faults.faults_injected] + _cqes(a, b)


def scenario_shared_egress():
    """Two QPs on one NIC post at the same ns onto one egress link."""
    env = Environment()
    fabric = Fabric(env)
    a = _Host(fabric, "a")
    b, c = _Host(fabric, "b"), _Host(fabric, "c")
    qp_ab, qp_ba = a.qp(), b.qp()
    qp_ac, qp_ca = a.qp(), c.qp()
    QueuePair.connect_pair(qp_ab, qp_ba)
    QueuePair.connect_pair(qp_ac, qp_ca)
    _post_at(env, 1_000, qp_ab, [_write(a, b, 65536, 1), _write(a, b, 1024, 2)])
    _post_at(env, 1_000, qp_ac, [_write(a, c, 65536, 3), _write(a, c, 1024, 4)])
    env.run()
    return _cqes(a, b, c)


SCENARIOS = {
    "send": scenario_send,
    "write": scenario_write,
    "imm_read_atomics": scenario_imm_read_atomics,
    "loopback": scenario_loopback,
    "rnr": scenario_rnr,
    "errors": scenario_errors,
    "send_queue_full": scenario_send_queue_full,
    "flush_on_err": scenario_flush_on_err,
    "faults": scenario_faults,
    "shared_egress": scenario_shared_egress,
}

GOLDEN: dict[str, list] = {
    "errors": [
        ("a.cq1", 2109, 1, "REM_ACCESS_ERR", "RDMA_WRITE", 64, None),
        ("c.cq1", 2109, 2, "REM_INV_REQ_ERR", "SEND", 64, None),
        ("d.cq1", 2109, 50, "LOC_LEN_ERR", "RECV", 0, None),
        ("d.cq1", 2109, 51, "WR_FLUSH_ERR", "RECV", 0, None),
    ],
    "faults": [
        4,
        ("a.cq1", 4573, 1, "SUCCESS", "RDMA_WRITE", 8192, None),
        ("a.cq1", 5232, 3, "SUCCESS", "SEND", 300, None),
        ("a.cq1", 6265, 5, "SUCCESS", "RDMA_READ", 1024, None),
        ("a.cq1", 6681, 4, "SUCCESS", "RDMA_WRITE", 8192, None),
        ("a.cq1", 7340, 6, "SUCCESS", "SEND", 300, None),
        ("a.cq1", 8204, 8, "SUCCESS", "RDMA_READ", 1024, None),
        ("a.cq1", 10481, 11, "SUCCESS", "RDMA_READ", 1024, None),
        ("a.cq1", 10897, 10, "SUCCESS", "RDMA_WRITE", 8192, None),
        ("a.cq1", 11556, 12, "SUCCESS", "SEND", 300, None),
        ("a.cq1", 15789, 7, "SUCCESS", "RDMA_WRITE", 8192, None),
        ("a.cq1", 17988, 2, "SUCCESS", "RDMA_READ", 1024, None),
        ("a.cq1", 23448, 9, "SUCCESS", "SEND", 300, None),
        ("b.cq1", 3432, 20, "SUCCESS", "RECV", 300, None),
        ("b.cq1", 5540, 21, "SUCCESS", "RECV", 300, None),
        ("b.cq1", 9756, 22, "SUCCESS", "RECV", 300, None),
        ("b.cq1", 21648, 23, "SUCCESS", "RECV", 300, None),
    ],
    "flush_on_err": [
        ("a.cq1", 2109, 1, "REM_ACCESS_ERR", "RDMA_WRITE", 64, None),
        ("a.cq1", 2109, 60, "WR_FLUSH_ERR", "RECV", 0, None),
        ("a.cq1", 2412, 4, "WR_FLUSH_ERR", "RDMA_WRITE", 64, None),
        ("a.cq1", 2412, 5, "WR_FLUSH_ERR", "RDMA_WRITE", 64, None),
        ("a.cq1", 2412, 6, "WR_FLUSH_ERR", "RDMA_WRITE", 64, None),
        ("a.cq1", 2913, 2, "RETRY_EXC_ERR", "RDMA_WRITE", 64, None),
        ("a.cq1", 3717, 3, "RETRY_EXC_ERR", "RDMA_WRITE", 64, None),
    ],
    "imm_read_atomics": [
        ("a.cq1", 5946, 1, "SUCCESS", "RDMA_WRITE", 512, None),
        ("a.cq1", 6071, 2, "SUCCESS", "RDMA_READ", 2048, None),
        ("a.cq1", 6810, 3, "SUCCESS", "FETCH_ADD", 8, None),
        ("a.cq1", 7614, 4, "SUCCESS", "COMP_SWAP", 8, None),
        ("b.cq1", 4146, 20, "SUCCESS", "RECV_RDMA_WITH_IMM", 512, 77),
    ],
    "loopback": [
        ("a.cq1", 3371, 1, "SUCCESS", "RDMA_WRITE", 4096, None),
        ("a.cq1", 4012, 2, "SUCCESS", "SEND", 100, None),
        ("a.cq2", 2212, 30, "SUCCESS", "RECV", 100, None),
    ],
    "rnr": [
        ("a.cq1", 23909, 1, "SUCCESS", "SEND", 64, None),
        ("b.cq1", 22109, 40, "SUCCESS", "RECV", 64, None),
        ("c.cq1", 22109, 2, "RNR_RETRY_EXC_ERR", "SEND", 64, None),
    ],
    "send": [
        ("a.cq1", 4925, 1, "SUCCESS", "SEND", 256, None),
        ("a.cq1", 5407, 2, "SUCCESS", "SEND", 32, None),
        ("b.cq1", 3125, 10, "SUCCESS", "RECV", 256, None),
        ("b.cq1", 3607, 11, "SUCCESS", "RECV", 32, 48879),
    ],
    "send_queue_full": [
        ("full", 4, 50),
        ("full", 5, 50),
        ("a.cq1", 3975, 1, "SUCCESS", "RDMA_WRITE", 256, None),
        ("a.cq1", 4779, 2, "SUCCESS", "RDMA_WRITE", 256, None),
        ("a.cq1", 5583, 3, "SUCCESS", "RDMA_WRITE", 256, None),
        ("a.cq1", 6975, 9, "SUCCESS", "RDMA_WRITE", 256, None),
    ],
    "shared_egress": [
        ("a.cq1", 10252, 1, "SUCCESS", "RDMA_WRITE", 65536, None),
        ("a.cq1", 15600, 3, "SUCCESS", "RDMA_WRITE", 65536, None),
        ("a.cq1", 15684, 2, "SUCCESS", "RDMA_WRITE", 1024, None),
        ("a.cq1", 15768, 4, "SUCCESS", "RDMA_WRITE", 1024, None),
    ],
    "write": [
        3992,
        ("a.cq1", 4488, 1, "SUCCESS", "RDMA_WRITE", 1024, None),
        ("a.cq1", 4909, 2, "SUCCESS", "RDMA_WRITE", 64, None),
        ("a.cq1", 6596, 4, "SUCCESS", "RDMA_WRITE", 1024, None),
    ],
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_verbs_golden_timings(name):
    assert SCENARIOS[name]() == GOLDEN[name]


#: Fig. 8 ``--quick`` median RTTs (ns) per series and size.
FIG8_QUICK: dict[str, dict[int, float]] = {
    "rdma": {2: 3690.0, 128: 3710.0, 1024: 4466.0, 16384: 6972.0},
    "tcp": {2: 29600.0, 128: 29706.0, 1024: 30444.0, 16384: 43124.0},
    "hot": {2: 4017.0, 128: 4341.0, 1024: 4793.0, 16384: 7299.0},
    "hot-docker": {2: 4067.0, 128: 4391.0, 1024: 4843.0, 16384: 7349.0},
    "warm": {2: 8361.0, 128: 8685.0, 1024: 9137.0, 16384: 11643.0},
    "warm-docker": {2: 9011.0, 128: 9335.0, 1024: 9787.0, 16384: 12293.0},
}


def test_fig8_quick_series_pinned():
    assert run_experiment("fig8", quick=True).series == FIG8_QUICK
