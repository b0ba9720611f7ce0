//! Collective operations, implemented over the fabric's generation-counted
//! exchange lanes: every member deposits its contribution for the round and
//! reads back the full set, then computes its own result locally.

use std::sync::Arc;

use crate::comm::CommHandle;
use crate::datatype::DatatypeHandle;
use crate::fabric::Lane;
use crate::heap::Addr;
use crate::hooks::Arg;
use crate::request::{NbOp, ReqKind, RequestHandle};
use crate::types::ReduceOp;
use crate::FuncId;

use super::{bytes_to_u64s, le_u64, u64s_to_bytes, Env};

impl Env {
    /// One blocking exchange round on the communicator's app lane: deposits
    /// `contrib`, returns all contributions (indexed by lane rank) plus the
    /// synchronization time.
    pub(crate) fn exchange_raw(
        &mut self,
        comm: CommHandle,
        contrib: Vec<u8>,
    ) -> (Arc<Vec<Vec<u8>>>, u64) {
        let info = self.comms.get(comm);
        // Lookup only: the lane was registered (with its member list) when
        // the communicator was installed.
        let coll = self.fabric.coll(info.ctx, Lane::App);
        let round = info.app_round.get();
        info.app_round.set(round + 1);
        let lane_rank = info.lane_rank();
        let bytes = contrib.len() as u64;
        coll.deposit(round, lane_rank, contrib, self.clock.now());
        let (res, sync) = coll.wait_collect(&self.fabric, round, self.world_rank());
        // Charge the synchronization wait plus a size-dependent cost.
        self.clock.absorb_collective(sync, bytes);
        (res, sync)
    }

    /// Starts a non-blocking exchange; completion via the request machinery.
    pub(crate) fn exchange_nb_raw(
        &mut self,
        comm: CommHandle,
        contrib: Vec<u8>,
        op: NbOp,
    ) -> RequestHandle {
        let info = self.comms.get(comm);
        let coll = self.fabric.coll(info.ctx, Lane::App);
        let round = info.app_round.get();
        info.app_round.set(round + 1);
        let lane_rank = info.lane_rank();
        coll.deposit(round, lane_rank, contrib, self.clock.now());
        self.reqs.insert(ReqKind::Coll { coll, round, lane_rank, op })
    }

    /// `MPI_Barrier`.
    pub fn barrier(&mut self, comm: CommHandle) {
        self.call(FuncId::Barrier, |env| {
            env.exchange_raw(comm, Vec::new());
            ((), vec![Arg::Comm(comm.0)])
        })
    }

    /// `MPI_Ibarrier`.
    pub fn ibarrier(&mut self, comm: CommHandle) -> RequestHandle {
        self.call(FuncId::Ibarrier, |env| {
            let req = env.exchange_nb_raw(comm, Vec::new(), NbOp::Barrier);
            (req, vec![Arg::Comm(comm.0), Arg::Request(req.0)])
        })
    }

    /// `MPI_Bcast`.
    pub fn bcast(
        &mut self,
        buf: Addr,
        count: u64,
        dt: DatatypeHandle,
        root: i32,
        comm: CommHandle,
    ) {
        self.call(FuncId::Bcast, |env| {
            let my_rank = env.comms.get(comm).my_rank;
            let contrib =
                if my_rank == root as usize { env.pack_buf(buf, count, dt) } else { Vec::new() };
            let (res, _) = env.exchange_raw(comm, contrib);
            if my_rank != root as usize {
                let data = res[root as usize].clone();
                env.unpack_buf(buf, count, dt, &data);
            }
            let args = vec![
                Arg::Ptr(buf),
                Arg::Int(count as i64),
                Arg::Datatype(dt.0),
                Arg::Rank(root),
                Arg::Comm(comm.0),
            ];
            ((), args)
        })
    }

    pub(super) fn reduce_contribs(contribs: &[Vec<u8>], op: ReduceOp) -> Vec<u64> {
        let mut acc = bytes_to_u64s(&contribs[0]);
        for c in &contribs[1..] {
            let next = bytes_to_u64s(c);
            op.combine(&mut acc, &next);
        }
        acc
    }

    /// `MPI_Reduce` (u64 lanes; `count` is the number of 8-byte elements).
    #[allow(clippy::too_many_arguments)]
    pub fn reduce(
        &mut self,
        sendbuf: Addr,
        recvbuf: Addr,
        count: u64,
        dt: DatatypeHandle,
        op: ReduceOp,
        root: i32,
        comm: CommHandle,
    ) {
        self.call(FuncId::Reduce, |env| {
            let contrib = env.pack_buf(sendbuf, count, dt);
            let (res, _) = env.exchange_raw(comm, contrib);
            let my_rank = env.comms.get(comm).my_rank;
            if my_rank == root as usize {
                let acc = Self::reduce_contribs(&res, op);
                env.heap.write_u64s(recvbuf, &acc);
            }
            let args = vec![
                Arg::Ptr(sendbuf),
                Arg::Ptr(recvbuf),
                Arg::Int(count as i64),
                Arg::Datatype(dt.0),
                Arg::Op(op.id()),
                Arg::Rank(root),
                Arg::Comm(comm.0),
            ];
            ((), args)
        })
    }

    /// `MPI_Allreduce`.
    pub fn allreduce(
        &mut self,
        sendbuf: Addr,
        recvbuf: Addr,
        count: u64,
        dt: DatatypeHandle,
        op: ReduceOp,
        comm: CommHandle,
    ) {
        self.call(FuncId::Allreduce, |env| {
            let contrib = env.pack_buf(sendbuf, count, dt);
            let (res, _) = env.exchange_raw(comm, contrib);
            let acc = Self::reduce_contribs(&res, op);
            env.heap.write_u64s(recvbuf, &acc);
            let args = vec![
                Arg::Ptr(sendbuf),
                Arg::Ptr(recvbuf),
                Arg::Int(count as i64),
                Arg::Datatype(dt.0),
                Arg::Op(op.id()),
                Arg::Comm(comm.0),
            ];
            ((), args)
        })
    }

    /// `MPI_Iallreduce`.
    pub fn iallreduce(
        &mut self,
        sendbuf: Addr,
        recvbuf: Addr,
        count: u64,
        dt: DatatypeHandle,
        op: ReduceOp,
        comm: CommHandle,
    ) -> RequestHandle {
        self.call(FuncId::Iallreduce, |env| {
            let contrib = env.pack_buf(sendbuf, count, dt);
            let lanes = contrib.len() / 8;
            let req =
                env.exchange_nb_raw(comm, contrib, NbOp::Allreduce { recv: recvbuf, lanes, op });
            let args = vec![
                Arg::Ptr(sendbuf),
                Arg::Ptr(recvbuf),
                Arg::Int(count as i64),
                Arg::Datatype(dt.0),
                Arg::Op(op.id()),
                Arg::Comm(comm.0),
                Arg::Request(req.0),
            ];
            (req, args)
        })
    }

    /// `MPI_Gather`.
    #[allow(clippy::too_many_arguments)]
    pub fn gather(
        &mut self,
        sendbuf: Addr,
        sendcount: u64,
        sendtype: DatatypeHandle,
        recvbuf: Addr,
        recvcount: u64,
        recvtype: DatatypeHandle,
        root: i32,
        comm: CommHandle,
    ) {
        self.call(FuncId::Gather, |env| {
            let contrib = env.pack_buf(sendbuf, sendcount, sendtype);
            let (res, _) = env.exchange_raw(comm, contrib);
            let my_rank = env.comms.get(comm).my_rank;
            if my_rank == root as usize {
                let extent = env.types.get(recvtype).extent;
                for (i, data) in res.iter().enumerate() {
                    let dst = recvbuf + (i as u64) * recvcount * extent;
                    env.unpack_buf(dst, recvcount, recvtype, data);
                }
            }
            let args = vec![
                Arg::Ptr(sendbuf),
                Arg::Int(sendcount as i64),
                Arg::Datatype(sendtype.0),
                Arg::Ptr(recvbuf),
                Arg::Int(recvcount as i64),
                Arg::Datatype(recvtype.0),
                Arg::Rank(root),
                Arg::Comm(comm.0),
            ];
            ((), args)
        })
    }

    /// `MPI_Gatherv` (displacements in elements of the receive type).
    #[allow(clippy::too_many_arguments)]
    pub fn gatherv(
        &mut self,
        sendbuf: Addr,
        sendcount: u64,
        sendtype: DatatypeHandle,
        recvbuf: Addr,
        recvcounts: &[u64],
        displs: &[i64],
        recvtype: DatatypeHandle,
        root: i32,
        comm: CommHandle,
    ) {
        self.call(FuncId::Gatherv, |env| {
            let contrib = env.pack_buf(sendbuf, sendcount, sendtype);
            let (res, _) = env.exchange_raw(comm, contrib);
            let my_rank = env.comms.get(comm).my_rank;
            if my_rank == root as usize {
                let extent = env.types.get(recvtype).extent;
                for (i, data) in res.iter().enumerate() {
                    let dst = (recvbuf as i64 + displs[i] * extent as i64) as Addr;
                    env.unpack_buf(dst, recvcounts[i], recvtype, data);
                }
            }
            let args = vec![
                Arg::Ptr(sendbuf),
                Arg::Int(sendcount as i64),
                Arg::Datatype(sendtype.0),
                Arg::Ptr(recvbuf),
                Arg::IntArr(recvcounts.iter().map(|&c| c as i64).collect()),
                Arg::IntArr(displs.to_vec()),
                Arg::Datatype(recvtype.0),
                Arg::Rank(root),
                Arg::Comm(comm.0),
            ];
            ((), args)
        })
    }

    /// `MPI_Scatter`.
    #[allow(clippy::too_many_arguments)]
    pub fn scatter(
        &mut self,
        sendbuf: Addr,
        sendcount: u64,
        sendtype: DatatypeHandle,
        recvbuf: Addr,
        recvcount: u64,
        recvtype: DatatypeHandle,
        root: i32,
        comm: CommHandle,
    ) {
        self.call(FuncId::Scatter, |env| {
            let my_rank = env.comms.get(comm).my_rank;
            let comm_size = env.comms.get(comm).size();
            let contrib = if my_rank == root as usize {
                env.pack_buf(sendbuf, sendcount * comm_size as u64, sendtype)
            } else {
                Vec::new()
            };
            let (res, _) = env.exchange_raw(comm, contrib);
            let full = &res[root as usize];
            let elem = env.types.get(sendtype).size;
            let chunk = (sendcount * elem) as usize;
            let mine = &full[my_rank * chunk..(my_rank + 1) * chunk];
            let mine = mine.to_vec();
            env.unpack_buf(recvbuf, recvcount, recvtype, &mine);
            let args = vec![
                Arg::Ptr(sendbuf),
                Arg::Int(sendcount as i64),
                Arg::Datatype(sendtype.0),
                Arg::Ptr(recvbuf),
                Arg::Int(recvcount as i64),
                Arg::Datatype(recvtype.0),
                Arg::Rank(root),
                Arg::Comm(comm.0),
            ];
            ((), args)
        })
    }

    /// `MPI_Scatterv` (send displacements in elements of the send type).
    #[allow(clippy::too_many_arguments)]
    pub fn scatterv(
        &mut self,
        sendbuf: Addr,
        sendcounts: &[u64],
        displs: &[i64],
        sendtype: DatatypeHandle,
        recvbuf: Addr,
        recvcount: u64,
        recvtype: DatatypeHandle,
        root: i32,
        comm: CommHandle,
    ) {
        self.call(FuncId::Scatterv, |env| {
            let my_rank = env.comms.get(comm).my_rank;
            let contrib = if my_rank == root as usize {
                // Pack each rank's chunk separately, concatenated with a length
                // prefix so chunks can be recovered.
                let mut out = Vec::new();
                for (i, &cnt) in sendcounts.iter().enumerate() {
                    let extent = env.types.get(sendtype).extent;
                    let src = (sendbuf as i64 + displs[i] * extent as i64) as Addr;
                    let chunk = env.pack_buf(src, cnt, sendtype);
                    out.extend_from_slice(&(chunk.len() as u64).to_le_bytes());
                    out.extend_from_slice(&chunk);
                }
                out
            } else {
                Vec::new()
            };
            let (res, _) = env.exchange_raw(comm, contrib);
            // Recover my chunk from the root's contribution.
            let full = &res[root as usize];
            let mut pos = 0usize;
            let mut mine = Vec::new();
            for i in 0..env.comms.get(comm).size() {
                let len = le_u64(&full[pos..]) as usize;
                pos += 8;
                if i == my_rank {
                    mine = full[pos..pos + len].to_vec();
                }
                pos += len;
            }
            env.unpack_buf(recvbuf, recvcount, recvtype, &mine);
            let args = vec![
                Arg::Ptr(sendbuf),
                Arg::IntArr(sendcounts.iter().map(|&c| c as i64).collect()),
                Arg::IntArr(displs.to_vec()),
                Arg::Datatype(sendtype.0),
                Arg::Ptr(recvbuf),
                Arg::Int(recvcount as i64),
                Arg::Datatype(recvtype.0),
                Arg::Rank(root),
                Arg::Comm(comm.0),
            ];
            ((), args)
        })
    }

    /// `MPI_Allgather`.
    #[allow(clippy::too_many_arguments)]
    pub fn allgather(
        &mut self,
        sendbuf: Addr,
        sendcount: u64,
        sendtype: DatatypeHandle,
        recvbuf: Addr,
        recvcount: u64,
        recvtype: DatatypeHandle,
        comm: CommHandle,
    ) {
        self.call(FuncId::Allgather, |env| {
            let contrib = env.pack_buf(sendbuf, sendcount, sendtype);
            let (res, _) = env.exchange_raw(comm, contrib);
            let extent = env.types.get(recvtype).extent;
            for (i, data) in res.iter().enumerate() {
                let dst = recvbuf + (i as u64) * recvcount * extent;
                let data = data.clone();
                env.unpack_buf(dst, recvcount, recvtype, &data);
            }
            let args = vec![
                Arg::Ptr(sendbuf),
                Arg::Int(sendcount as i64),
                Arg::Datatype(sendtype.0),
                Arg::Ptr(recvbuf),
                Arg::Int(recvcount as i64),
                Arg::Datatype(recvtype.0),
                Arg::Comm(comm.0),
            ];
            ((), args)
        })
    }

    /// `MPI_Allgatherv`.
    #[allow(clippy::too_many_arguments)]
    pub fn allgatherv(
        &mut self,
        sendbuf: Addr,
        sendcount: u64,
        sendtype: DatatypeHandle,
        recvbuf: Addr,
        recvcounts: &[u64],
        displs: &[i64],
        recvtype: DatatypeHandle,
        comm: CommHandle,
    ) {
        self.call(FuncId::Allgatherv, |env| {
            let contrib = env.pack_buf(sendbuf, sendcount, sendtype);
            let (res, _) = env.exchange_raw(comm, contrib);
            let extent = env.types.get(recvtype).extent;
            for (i, data) in res.iter().enumerate() {
                let dst = (recvbuf as i64 + displs[i] * extent as i64) as Addr;
                let data = data.clone();
                env.unpack_buf(dst, recvcounts[i], recvtype, &data);
            }
            let args = vec![
                Arg::Ptr(sendbuf),
                Arg::Int(sendcount as i64),
                Arg::Datatype(sendtype.0),
                Arg::Ptr(recvbuf),
                Arg::IntArr(recvcounts.iter().map(|&c| c as i64).collect()),
                Arg::IntArr(displs.to_vec()),
                Arg::Datatype(recvtype.0),
                Arg::Comm(comm.0),
            ];
            ((), args)
        })
    }

    /// `MPI_Alltoall`.
    #[allow(clippy::too_many_arguments)]
    pub fn alltoall(
        &mut self,
        sendbuf: Addr,
        sendcount: u64,
        sendtype: DatatypeHandle,
        recvbuf: Addr,
        recvcount: u64,
        recvtype: DatatypeHandle,
        comm: CommHandle,
    ) {
        self.call(FuncId::Alltoall, |env| {
            let comm_size = env.comms.get(comm).size();
            let my_rank = env.comms.get(comm).my_rank;
            let contrib = env.pack_buf(sendbuf, sendcount * comm_size as u64, sendtype);
            let (res, _) = env.exchange_raw(comm, contrib);
            let elem = env.types.get(sendtype).size;
            let chunk = (sendcount * elem) as usize;
            let extent = env.types.get(recvtype).extent;
            for (i, data) in res.iter().enumerate() {
                let piece = data[my_rank * chunk..(my_rank + 1) * chunk].to_vec();
                let dst = recvbuf + (i as u64) * recvcount * extent;
                env.unpack_buf(dst, recvcount, recvtype, &piece);
            }
            let args = vec![
                Arg::Ptr(sendbuf),
                Arg::Int(sendcount as i64),
                Arg::Datatype(sendtype.0),
                Arg::Ptr(recvbuf),
                Arg::Int(recvcount as i64),
                Arg::Datatype(recvtype.0),
                Arg::Comm(comm.0),
            ];
            ((), args)
        })
    }

    /// `MPI_Alltoallv`.
    #[allow(clippy::too_many_arguments)]
    pub fn alltoallv(
        &mut self,
        sendbuf: Addr,
        sendcounts: &[u64],
        sdispls: &[i64],
        sendtype: DatatypeHandle,
        recvbuf: Addr,
        recvcounts: &[u64],
        rdispls: &[i64],
        recvtype: DatatypeHandle,
        comm: CommHandle,
    ) {
        self.call(FuncId::Alltoallv, |env| {
            let my_rank = env.comms.get(comm).my_rank;
            // Length-prefixed per-destination chunks.
            let mut contrib = Vec::new();
            for (i, &cnt) in sendcounts.iter().enumerate() {
                let extent = env.types.get(sendtype).extent;
                let src = (sendbuf as i64 + sdispls[i] * extent as i64) as Addr;
                let chunk = env.pack_buf(src, cnt, sendtype);
                contrib.extend_from_slice(&(chunk.len() as u64).to_le_bytes());
                contrib.extend_from_slice(&chunk);
            }
            let (res, _) = env.exchange_raw(comm, contrib);
            let extent = env.types.get(recvtype).extent;
            for (i, data) in res.iter().enumerate() {
                // Extract chunk destined to my_rank from sender i.
                let mut pos = 0usize;
                let mut mine: Option<Vec<u8>> = None;
                for j in 0..res.len() {
                    let len = le_u64(&data[pos..]) as usize;
                    pos += 8;
                    if j == my_rank {
                        mine = Some(data[pos..pos + len].to_vec());
                        break;
                    }
                    pos += len;
                }
                let mine = mine.expect("alltoallv chunk present");
                let dst = (recvbuf as i64 + rdispls[i] * extent as i64) as Addr;
                env.unpack_buf(dst, recvcounts[i], recvtype, &mine);
            }
            let args = vec![
                Arg::Ptr(sendbuf),
                Arg::IntArr(sendcounts.iter().map(|&c| c as i64).collect()),
                Arg::IntArr(sdispls.to_vec()),
                Arg::Datatype(sendtype.0),
                Arg::Ptr(recvbuf),
                Arg::IntArr(recvcounts.iter().map(|&c| c as i64).collect()),
                Arg::IntArr(rdispls.to_vec()),
                Arg::Datatype(recvtype.0),
                Arg::Comm(comm.0),
            ];
            ((), args)
        })
    }

    /// `MPI_Reduce_scatter_block`.
    pub fn reduce_scatter_block(
        &mut self,
        sendbuf: Addr,
        recvbuf: Addr,
        recvcount: u64,
        dt: DatatypeHandle,
        op: ReduceOp,
        comm: CommHandle,
    ) {
        self.call(FuncId::ReduceScatterBlock, |env| {
            let comm_size = env.comms.get(comm).size();
            let my_rank = env.comms.get(comm).my_rank;
            let contrib = env.pack_buf(sendbuf, recvcount * comm_size as u64, dt);
            let (res, _) = env.exchange_raw(comm, contrib);
            let acc = Self::reduce_contribs(&res, op);
            let lanes_per_rank = acc.len() / comm_size;
            let mine = &acc[my_rank * lanes_per_rank..(my_rank + 1) * lanes_per_rank];
            env.heap.write_u64s(recvbuf, mine);
            let args = vec![
                Arg::Ptr(sendbuf),
                Arg::Ptr(recvbuf),
                Arg::Int(recvcount as i64),
                Arg::Datatype(dt.0),
                Arg::Op(op.id()),
                Arg::Comm(comm.0),
            ];
            ((), args)
        })
    }

    #[allow(clippy::too_many_arguments)] // mirrors the MPI C signature
    fn scan_like(
        &mut self,
        func: FuncId,
        sendbuf: Addr,
        recvbuf: Addr,
        count: u64,
        dt: DatatypeHandle,
        op: ReduceOp,
        comm: CommHandle,
        exclusive: bool,
    ) {
        self.call(func, |env| {
            let contrib = env.pack_buf(sendbuf, count, dt);
            let (res, _) = env.exchange_raw(comm, contrib);
            let my_rank = env.comms.get(comm).my_rank;
            let upto = if exclusive { my_rank } else { my_rank + 1 };
            if upto > 0 {
                let acc = Self::reduce_contribs(&res[..upto], op);
                env.heap.write_u64s(recvbuf, &acc);
            }
            let args = vec![
                Arg::Ptr(sendbuf),
                Arg::Ptr(recvbuf),
                Arg::Int(count as i64),
                Arg::Datatype(dt.0),
                Arg::Op(op.id()),
                Arg::Comm(comm.0),
            ];
            ((), args)
        })
    }

    /// `MPI_Scan`.
    pub fn scan(
        &mut self,
        sendbuf: Addr,
        recvbuf: Addr,
        count: u64,
        dt: DatatypeHandle,
        op: ReduceOp,
        comm: CommHandle,
    ) {
        self.scan_like(FuncId::Scan, sendbuf, recvbuf, count, dt, op, comm, false);
    }

    /// `MPI_Exscan`.
    pub fn exscan(
        &mut self,
        sendbuf: Addr,
        recvbuf: Addr,
        count: u64,
        dt: DatatypeHandle,
        op: ReduceOp,
        comm: CommHandle,
    ) {
        self.scan_like(FuncId::Exscan, sendbuf, recvbuf, count, dt, op, comm, true);
    }

    /// Serializes reduce lanes (test helper for collectives).
    #[doc(hidden)]
    pub fn lanes(vals: &[u64]) -> Vec<u8> {
        u64s_to_bytes(vals)
    }
}
