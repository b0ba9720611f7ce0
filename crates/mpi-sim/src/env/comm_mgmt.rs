//! Communicator creation and destruction: dup / split / create / idup,
//! inter-communicators and their merge — including the corner cases the
//! paper calls out (§3.3.1): non-blocking duplication and
//! inter-communicator handling.

use std::cell::Cell;

use crate::comm::{CartTopology, CommHandle, CommInfo, GroupHandle};
use crate::fabric::{ContextId, Lane};
use crate::hooks::Arg;
use crate::request::{NbOp, RequestHandle};
use crate::FuncId;

use super::{le_u64, Env};

/// Color value for `MPI_UNDEFINED` in `comm_split`.
pub const COLOR_UNDEFINED: i32 = -3;

fn ser_u64s(vals: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + vals.len() * 8);
    out.extend_from_slice(&(vals.len() as u64).to_le_bytes());
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn deser_u64s(data: &[u8]) -> (Vec<u64>, usize) {
    let n = le_u64(data) as usize;
    let out = (0..n).map(|i| le_u64(&data[8 + 8 * i..])).collect();
    (out, 8 + 8 * n)
}

/// The handle a record reports for a communicator the call did not create
/// (`MPI_COMM_NULL`).
fn comm_arg(c: Option<CommHandle>) -> Arg {
    Arg::Comm(c.map_or(u32::MAX, |h| h.0))
}

impl Env {
    /// Registers both lanes of an intra-communicator over `group` and
    /// installs it — into `reserved` when `MPI_Comm_idup` handed out the
    /// handle before the communicator existed.
    pub(super) fn install_intra(
        &mut self,
        ctx: ContextId,
        group: Vec<usize>,
        reserved: Option<CommHandle>,
    ) -> CommHandle {
        let my_rank = group
            .iter()
            .position(|&w| w == self.world_rank())
            .expect("installing a communicator we are not a member of");
        self.fabric.ensure_coll(ctx, Lane::App, &group);
        self.fabric.ensure_coll(ctx, Lane::Tool, &group);
        let info = CommInfo {
            ctx,
            group,
            my_rank,
            remote_group: None,
            union_offset: 0,
            app_round: Cell::new(0),
            tool_round: Cell::new(0),
            name: None,
            cart: None,
        };
        match reserved {
            Some(h) => {
                self.comms.fill(h, info);
                h
            }
            None => self.comms.insert(info),
        }
    }

    /// A new context id when this rank leads the creation, else nothing:
    /// the contribution a creating collective exchanges.
    fn ctx_contrib(&self, leader: bool) -> Vec<u8> {
        if leader {
            self.fabric.alloc_context().to_le_bytes().to_vec()
        } else {
            Vec::new()
        }
    }

    /// `MPI_Comm_dup`.
    pub fn comm_dup(&mut self, comm: CommHandle) -> CommHandle {
        self.call(FuncId::CommDup, |env| {
            // Rank 0 allocates the new context and distributes it.
            let contrib = env.ctx_contrib(env.comms.get(comm).my_rank == 0);
            let (res, _) = env.exchange_raw(comm, contrib);
            let group = env.comms.get(comm).group.clone();
            let new = env.install_intra(le_u64(&res[0]), group, None);
            (new, vec![Arg::Comm(comm.0), Arg::Comm(new.0)])
        })
    }

    /// `MPI_Comm_idup`: returns the (not-yet-usable) handle and a request;
    /// the communicator becomes valid when the request completes.
    pub fn comm_idup(&mut self, comm: CommHandle) -> (CommHandle, RequestHandle) {
        self.call(FuncId::CommIdup, |env| {
            let contrib = env.ctx_contrib(env.comms.get(comm).my_rank == 0);
            let new_handle = env.comms.reserve();
            let req = env.exchange_nb_raw(comm, contrib, NbOp::Idup { parent: comm, new_handle });
            let args = vec![Arg::Comm(comm.0), Arg::Comm(new_handle.0), Arg::Request(req.0)];
            ((new_handle, req), args)
        })
    }

    /// `MPI_Comm_split`. `color < 0` (UNDEFINED) yields no communicator.
    pub fn comm_split(&mut self, comm: CommHandle, color: i32, key: i32) -> Option<CommHandle> {
        self.call(FuncId::CommSplit, |env| {
            // Phase 1: everyone shares (color, key).
            let contrib = ser_u64s(&[color as u32 as u64, key as u32 as u64]);
            let (res, _) = env.exchange_raw(comm, contrib);
            let entries: Vec<(i32, i32)> = res
                .iter()
                .map(|d| {
                    let (vals, _) = deser_u64s(d);
                    (vals[0] as u32 as i32, vals[1] as u32 as i32)
                })
                .collect();
            // Members of my color, ordered by (key, parent rank).
            let info = env.comms.get(comm);
            let my_rank = info.my_rank;
            let parent_group = info.group.clone();
            let mut members: Vec<(i32, usize)> = entries
                .iter()
                .enumerate()
                .filter(|&(_, &(c, _))| color >= 0 && c == color)
                .map(|(r, &(_, k))| (k, r))
                .collect();
            members.sort_unstable();
            // Phase 2: each color leader (lowest parent rank in its color
            // group) allocates the context; everyone reads its leader's slot.
            let leader = entries
                .iter()
                .enumerate()
                .filter(|&(_, &(c, _))| color >= 0 && c == color)
                .map(|(r, _)| r)
                .min();
            let contrib2 = env.ctx_contrib(leader == Some(my_rank));
            let (res2, _) = env.exchange_raw(comm, contrib2);
            let new = leader.map(|l| {
                let group: Vec<usize> = members.iter().map(|&(_, r)| parent_group[r]).collect();
                env.install_intra(le_u64(&res2[l]), group, None)
            });
            (new, vec![Arg::Comm(comm.0), Arg::Color(color), Arg::Key(key), comm_arg(new)])
        })
    }

    /// `MPI_Comm_create`: collective over `comm`; members of `group` get
    /// the new communicator.
    pub fn comm_create(&mut self, comm: CommHandle, group: GroupHandle) -> Option<CommHandle> {
        self.call(FuncId::CommCreate, |env| {
            let members = env.group_members(group);
            let info = env.comms.get(comm);
            let in_group = members.contains(&env.world_rank());
            // Leader: parent-comm rank of the group's first member.
            let leader_parent_rank = info
                .group
                .iter()
                .position(|w| *w == members[0])
                .expect("group member not in parent communicator");
            let contrib = env.ctx_contrib(in_group && info.my_rank == leader_parent_rank);
            let (res, _) = env.exchange_raw(comm, contrib);
            let new = in_group
                .then(|| env.install_intra(le_u64(&res[leader_parent_rank]), members, None));
            (new, vec![Arg::Comm(comm.0), Arg::Group(group.0), comm_arg(new)])
        })
    }

    /// `MPI_Comm_free`.
    pub fn comm_free(&mut self, comm: CommHandle) {
        self.call(FuncId::CommFree, |env| {
            env.comms.remove(comm);
            ((), vec![Arg::Comm(comm.0)])
        })
    }

    /// `MPI_Intercomm_create`: builds an inter-communicator connecting the
    /// local communicator's group with a remote group, coordinated by the
    /// two leaders over the peer communicator.
    pub fn intercomm_create(
        &mut self,
        local_comm: CommHandle,
        local_leader: usize,
        peer_comm: CommHandle,
        remote_leader: i32,
        tag: i32,
    ) -> CommHandle {
        self.call(FuncId::IntercommCreate, |env| {
            let my_world = env.world_rank();
            let local = env.comms.get(local_comm);
            let my_rank = local.my_rank;
            let local_group = local.group.clone();
            // Leaders exchange (context proposal, group) through the
            // fabric's internal channel — the handshake a real MPI performs
            // over the peer communicator.
            let blob: Vec<u8> = if my_rank == local_leader {
                let peer = env.comms.get(peer_comm);
                let remote_leader_world = peer.peer_world(remote_leader);
                let proposal = env.fabric.alloc_context();
                let mut payload = ser_u64s(&[proposal, my_world as u64]);
                payload
                    .extend(ser_u64s(&local_group.iter().map(|&w| w as u64).collect::<Vec<_>>()));
                env.fabric.tool_send(remote_leader_world, my_world, tag ^ (1 << 20), payload);
                let reply = env.fabric.tool_recv(my_world, remote_leader_world, tag ^ (1 << 20));
                // Decide the winning context: the proposal of the leader
                // with the smaller world rank (consistent on both sides).
                let (head, used) = deser_u64s(&reply);
                let (their_ctx, their_world) = (head[0], head[1] as usize);
                let (their_group, _) = deser_u64s(&reply[used..]);
                let ctx = if my_world < their_world { proposal } else { their_ctx };
                let low_is_local = my_world < their_world;
                let mut out = ser_u64s(&[ctx, low_is_local as u64]);
                out.extend(ser_u64s(&their_group));
                out
            } else {
                Vec::new()
            };
            // Local broadcast of the handshake result.
            let (res, _) = env.exchange_raw(local_comm, blob);
            let data = &res[local_leader];
            let (head, used) = deser_u64s(data);
            let (ctx, low_is_local) = (head[0], head[1] != 0);
            let (remote_group_u, _) = deser_u64s(&data[used..]);
            let remote_group: Vec<usize> = remote_group_u.iter().map(|&w| w as usize).collect();
            let union_offset = if low_is_local { 0 } else { remote_group.len() };
            // Union ordering (low group first) — identical on both sides.
            let lane_group: Vec<usize> = if low_is_local {
                local_group.iter().chain(remote_group.iter()).copied().collect()
            } else {
                remote_group.iter().chain(local_group.iter()).copied().collect()
            };
            env.fabric.ensure_coll(ctx, Lane::App, &lane_group);
            env.fabric.ensure_coll(ctx, Lane::Tool, &lane_group);
            let new = env.comms.insert(CommInfo {
                ctx,
                group: local_group,
                my_rank,
                remote_group: Some(remote_group),
                union_offset,
                app_round: Cell::new(0),
                tool_round: Cell::new(0),
                name: None,
                cart: None,
            });
            let args = vec![
                Arg::Comm(local_comm.0),
                Arg::Rank(local_leader as i32),
                Arg::Comm(peer_comm.0),
                Arg::Rank(remote_leader),
                Arg::Tag(tag),
                Arg::Comm(new.0),
            ];
            (new, args)
        })
    }

    /// `MPI_Intercomm_merge`: merges an inter-communicator into an
    /// intra-communicator over the union of both groups. Groups passing
    /// `high = false` order first.
    pub fn intercomm_merge(&mut self, inter: CommHandle, high: bool) -> CommHandle {
        self.call(FuncId::IntercommMerge, |env| {
            // Phase 1: everyone shares (high flag, world rank).
            let contrib = ser_u64s(&[high as u64, env.world_rank() as u64]);
            let (res, _) = env.exchange_raw(inter, contrib);
            let mut entries: Vec<(u64, usize, usize)> = res
                .iter()
                .enumerate()
                .map(|(lane, d)| {
                    let (vals, _) = deser_u64s(d);
                    (vals[0], lane, vals[1] as usize)
                })
                .collect();
            // Merged order: low flag first, ties broken by union lane rank.
            entries.sort_by_key(|&(flag, lane, _)| (flag, lane));
            let merged_group: Vec<usize> = entries.iter().map(|&(_, _, w)| w).collect();
            // Phase 2: the member that lands at merged rank 0 allocates.
            let leader_lane = entries[0].1;
            let contrib2 = env.ctx_contrib(env.comms.get(inter).lane_rank() == leader_lane);
            let (res2, _) = env.exchange_raw(inter, contrib2);
            let new = env.install_intra(le_u64(&res2[leader_lane]), merged_group, None);
            (new, vec![Arg::Comm(inter.0), Arg::Int(high as i64), Arg::Comm(new.0)])
        })
    }
}

impl Env {
    /// `MPI_Dims_create`: balanced factorization of `nnodes` over `ndims`
    /// dimensions (a local call, but traced like every other MPI call).
    pub fn dims_create(&mut self, nnodes: usize, ndims: usize) -> Vec<usize> {
        self.call(FuncId::DimsCreate, |_| {
            let mut dims = vec![1usize; ndims.max(1)];
            let mut rem = nnodes.max(1);
            let mut factors = Vec::new();
            let mut f = 2;
            while f * f <= rem {
                while rem.is_multiple_of(f) {
                    factors.push(f);
                    rem /= f;
                }
                f += 1;
            }
            if rem > 1 {
                factors.push(rem);
            }
            factors.sort_unstable_by(|a, b| b.cmp(a));
            for f in factors {
                let i = (0..dims.len()).min_by_key(|&i| dims[i]).expect("ndims >= 1");
                dims[i] *= f;
            }
            dims.sort_unstable_by(|a, b| b.cmp(a));
            let args = vec![
                Arg::Int(nnodes as i64),
                Arg::Int(ndims as i64),
                Arg::IntArr(dims.iter().map(|&d| d as i64).collect()),
            ];
            (dims, args)
        })
    }

    /// `MPI_Cart_create`: builds a communicator with an attached Cartesian
    /// topology. Ranks beyond `product(dims)` receive `None`
    /// (`MPI_COMM_NULL`), as in MPI.
    pub fn cart_create(
        &mut self,
        comm: CommHandle,
        dims: &[usize],
        periods: &[bool],
        _reorder: bool,
    ) -> Option<CommHandle> {
        assert_eq!(dims.len(), periods.len(), "dims/periods arity mismatch");
        self.call(FuncId::CartCreate, |env| {
            let total: usize = dims.iter().product();
            let info = env.comms.get(comm);
            assert!(total <= info.size(), "cartesian grid larger than communicator");
            let my_rank = info.my_rank;
            let members: Vec<usize> = info.group[..total].to_vec();
            // Leader (parent rank 0 is always a member) allocates the context.
            let contrib = env.ctx_contrib(my_rank == 0);
            let (res, _) = env.exchange_raw(comm, contrib);
            let new = (my_rank < total).then(|| {
                let h = env.install_intra(le_u64(&res[0]), members, None);
                env.comms.get_mut(h).cart =
                    Some(CartTopology { dims: dims.to_vec(), periods: periods.to_vec() });
                h
            });
            let args = vec![
                Arg::Comm(comm.0),
                Arg::Int(dims.len() as i64),
                Arg::IntArr(dims.iter().map(|&d| d as i64).collect()),
                Arg::IntArr(periods.iter().map(|&p| p as i64).collect()),
                Arg::Int(0), // reorder (the simulator never reorders)
                comm_arg(new),
            ];
            (new, args)
        })
    }

    /// `MPI_Cart_rank`.
    pub fn cart_rank(&mut self, comm: CommHandle, coords: &[usize]) -> usize {
        self.call(FuncId::CartRank, |env| {
            let cart = env.comms.get(comm).cart.as_ref().expect("cartesian communicator");
            let rank = cart.rank_of(coords);
            let args = vec![
                Arg::Comm(comm.0),
                Arg::IntArr(coords.iter().map(|&c| c as i64).collect()),
                Arg::Int(rank as i64),
            ];
            (rank, args)
        })
    }

    /// `MPI_Cart_coords`.
    pub fn cart_coords(&mut self, comm: CommHandle, rank: usize) -> Vec<usize> {
        self.call(FuncId::CartCoords, |env| {
            let cart = env.comms.get(comm).cart.as_ref().expect("cartesian communicator");
            let coords = cart.coords(rank);
            let args = vec![
                Arg::Comm(comm.0),
                Arg::Int(rank as i64),
                Arg::IntArr(coords.iter().map(|&c| c as i64).collect()),
            ];
            (coords, args)
        })
    }

    /// `MPI_Cart_shift`: returns `(source, dest)` ranks for a shift of
    /// `disp` along `dim`; boundaries map to `PROC_NULL`.
    pub fn cart_shift(&mut self, comm: CommHandle, dim: usize, disp: i64) -> (i32, i32) {
        self.call(FuncId::CartShift, |env| {
            let info = env.comms.get(comm);
            let cart = info.cart.as_ref().expect("cartesian communicator");
            let me = info.my_rank;
            let src = cart.shift(me, dim, -disp).map_or(crate::types::PROC_NULL, |r| r as i32);
            let dst = cart.shift(me, dim, disp).map_or(crate::types::PROC_NULL, |r| r as i32);
            let args = vec![
                Arg::Comm(comm.0),
                Arg::Int(dim as i64),
                Arg::Int(disp),
                Arg::Rank(src),
                Arg::Rank(dst),
            ];
            ((src, dst), args)
        })
    }
}
