//! MPI function identities.
//!
//! Two layers:
//!
//! * [`FuncId`] — the calls the simulator actually executes and reports to
//!   tracers (the communication-relevant core of MPI).
//! * [`FunctionRegistry`] — the full MPI-4.0 C function inventory
//!   (Table 1 of the paper: 446 functions excluding `MPI_Wtime`/`MPI_Wtick`),
//!   with per-tool coverage classification used to regenerate the table.
//!   Pilgrim's wrappers are generated from the standard and cover all of
//!   them; ScalaTrace covers ~125 and Cypress ~56.
//!
//! The paper generates its wrappers from one machine-readable description
//! of the standard (§3.1). The equivalent here is the `traced_functions!`
//! table: one row per traced function says what its arguments mean (its
//! [`Shape`]), and one walk over a record and its shape answers what the
//! call completed and matched — for the raw arguments a tracer sees and for
//! the decoded ones a trace stores (DESIGN.md §15).

use crate::hooks::Arg;
use crate::request::REQUEST_NULL;
use crate::types::{ANY_SOURCE, ANY_TAG, PROC_NULL};

/// How a completion call picks the requests it completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Form {
    /// The one `Request` argument (`MPI_Wait`, `MPI_Test`, `MPI_Request_free`).
    One,
    /// Every entry of the `RequestArr` (`MPI_Waitall`, `MPI_Testall`).
    All,
    /// The entry the `Int` at [`Completion::index`] names, if not negative.
    Any,
    /// The entries the `IntArr` at [`Completion::index`] lists, in that order.
    Some,
}

/// The requests a call completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    pub form: Form,
    /// Position of the `Request` ([`Form::One`]) or `RequestArr`.
    pub requests: u8,
    /// Position of the completed index ([`Form::Any`]) or indices
    /// ([`Form::Some`]).
    pub index: Option<u8>,
    /// `MPI_Request_free`: the request is gone even when persistent.
    pub frees: bool,
}

/// The receive or probe a call posts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recv {
    /// Position of the source `Rank`.
    pub source: u8,
    /// Position of the `Tag`.
    pub tag: u8,
    /// A probe looks at a message without receiving it.
    pub probe: bool,
}

/// The request a call creates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Creates {
    /// Position of the new `Request`.
    pub at: u8,
    /// `MPI_*_init`: the request survives its completions.
    pub persistent: bool,
}

/// The object whose lifetime a call starts or ends, by argument position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Object {
    NewComm(u8),
    FreeComm(u8),
    FreeDatatype(u8),
    FreeGroup(u8),
}

/// What a traced function's arguments mean, by position in the record
/// [`crate::Env`] builds for it. Declared once per function in the table
/// below; everything that has to know which argument is a completed
/// request, a wildcard source or a returned status reads it from here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Position of the destination `Rank` of the message the call sends.
    pub dst: Option<u8>,
    pub recv: Option<Recv>,
    pub creates: Option<Creates>,
    pub completes: Option<Completion>,
    /// Position of the `Int` that is 1 when the call's outcome (its status,
    /// its completions) is real: `MPI_Test*`, `MPI_Iprobe`.
    pub flag: Option<u8>,
    /// Position of the `Status` or `StatusArr` the call returns.
    pub status: Option<u8>,
    pub object: Option<Object>,
}

/// The clauses a table row is written in.
impl Shape {
    const NONE: Shape = Shape {
        dst: None,
        recv: None,
        creates: None,
        completes: None,
        flag: None,
        status: None,
        object: None,
    };

    const fn send(self, dst: u8) -> Shape {
        Shape { dst: Some(dst), ..self }
    }

    const fn recv(self, source: u8, tag: u8) -> Shape {
        Shape { recv: Some(Recv { source, tag, probe: false }), ..self }
    }

    const fn probe(self, source: u8, tag: u8) -> Shape {
        Shape { recv: Some(Recv { source, tag, probe: true }), ..self }
    }

    const fn creates(self, at: u8) -> Shape {
        Shape { creates: Some(Creates { at, persistent: false }), ..self }
    }

    const fn persistent(self, at: u8) -> Shape {
        Shape { creates: Some(Creates { at, persistent: true }), ..self }
    }

    const fn completes(self, form: Form, requests: u8) -> Shape {
        Shape { completes: Some(Completion { form, requests, index: None, frees: false }), ..self }
    }

    const fn index(self, at: u8) -> Shape {
        match self.completes {
            Some(c) => Shape { completes: Some(Completion { index: Some(at), ..c }), ..self },
            None => panic!("an index belongs to a completion"),
        }
    }

    const fn frees(self, request: u8) -> Shape {
        let freed = Completion { form: Form::One, requests: request, index: None, frees: true };
        Shape { completes: Some(freed), ..self }
    }

    const fn flag(self, at: u8) -> Shape {
        Shape { flag: Some(at), ..self }
    }

    const fn status(self, at: u8) -> Shape {
        Shape { status: Some(at), ..self }
    }

    const fn object(self, object: Object) -> Shape {
        Shape { object: Some(object), ..self }
    }
}

/// One row per traced function — variant, MPI C name, then the clauses of
/// its [`Shape`] — generates [`FuncId`], [`FuncId::ALL`], [`FuncId::name`]
/// and [`FuncId::shape`]. Ids are row numbers and are written into every
/// call signature: new functions go at the end.
macro_rules! traced_functions {
    ($($variant:ident $name:literal $($clause:ident($($arg:expr),*))*;)*) => {
        /// Functions the simulator implements and traces.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[repr(u16)]
        pub enum FuncId {
            $($variant),*
        }

        impl FuncId {
            /// All implemented functions, in id order.
            pub const ALL: &'static [FuncId] = &[$(FuncId::$variant),*];

            /// The MPI C name of the function.
            pub fn name(self) -> &'static str {
                match self {
                    $(FuncId::$variant => $name),*
                }
            }

            /// What the function's arguments mean.
            #[inline]
            pub fn shape(self) -> &'static Shape {
                const SHAPES: &[Shape] = &[$(Shape::NONE$(.$clause($($arg),*))*),*];
                &SHAPES[self as usize]
            }
        }
    };
}

use Form::{All, Any, One};
use Object::{FreeComm, FreeDatatype, FreeGroup, NewComm};

traced_functions! {
    Init               "MPI_Init";
    Finalize           "MPI_Finalize";
    CommRank           "MPI_Comm_rank";
    CommSize           "MPI_Comm_size";
    CommDup            "MPI_Comm_dup"             object(NewComm(1));
    CommSplit          "MPI_Comm_split"           object(NewComm(3));
    CommCreate         "MPI_Comm_create"          object(NewComm(2));
    CommIdup           "MPI_Comm_idup"            object(NewComm(1)) creates(2);
    CommFree           "MPI_Comm_free"            object(FreeComm(0));
    CommGroup          "MPI_Comm_group";
    CommSetName        "MPI_Comm_set_name";
    IntercommCreate    "MPI_Intercomm_create"     object(NewComm(5));
    IntercommMerge     "MPI_Intercomm_merge"      object(NewComm(2));
    GroupIncl          "MPI_Group_incl";
    GroupFree          "MPI_Group_free"           object(FreeGroup(0));
    Send               "MPI_Send"                 send(3);
    Bsend              "MPI_Bsend"                send(3);
    Ssend              "MPI_Ssend"                send(3);
    Rsend              "MPI_Rsend"                send(3);
    Recv               "MPI_Recv"                 recv(3, 4) status(6);
    Isend              "MPI_Isend"                send(3) creates(6);
    Ibsend             "MPI_Ibsend"               send(3) creates(6);
    Issend             "MPI_Issend"               send(3) creates(6);
    Irsend             "MPI_Irsend"               send(3) creates(6);
    Irecv              "MPI_Irecv"                recv(3, 4) creates(6);
    Sendrecv           "MPI_Sendrecv"             send(3) recv(8, 9) status(11);
    Probe              "MPI_Probe"                probe(0, 1) status(3);
    Iprobe             "MPI_Iprobe"               probe(0, 1) flag(3) status(4);
    Wait               "MPI_Wait"                 completes(One, 0) status(1);
    Waitall            "MPI_Waitall"              completes(All, 1) status(2);
    Waitany            "MPI_Waitany"              completes(Any, 1) index(2) status(3);
    Waitsome           "MPI_Waitsome"             completes(Form::Some, 1) index(3) status(4);
    Test               "MPI_Test"                 completes(One, 0) flag(1) status(2);
    Testall            "MPI_Testall"              completes(All, 1) flag(2) status(3);
    Testany            "MPI_Testany"              completes(Any, 1) index(2) flag(3) status(4);
    Testsome           "MPI_Testsome"             completes(Form::Some, 1) index(3) status(4);
    RequestFree        "MPI_Request_free"         frees(0);
    Barrier            "MPI_Barrier";
    Bcast              "MPI_Bcast";
    Reduce             "MPI_Reduce";
    Allreduce          "MPI_Allreduce";
    Gather             "MPI_Gather";
    Gatherv            "MPI_Gatherv";
    Scatter            "MPI_Scatter";
    Scatterv           "MPI_Scatterv";
    Allgather          "MPI_Allgather";
    Allgatherv         "MPI_Allgatherv";
    Alltoall           "MPI_Alltoall";
    Alltoallv          "MPI_Alltoallv";
    ReduceScatterBlock "MPI_Reduce_scatter_block";
    Scan               "MPI_Scan";
    Exscan             "MPI_Exscan";
    Ibarrier           "MPI_Ibarrier"             creates(1);
    Iallreduce         "MPI_Iallreduce"           creates(6);
    TypeContiguous     "MPI_Type_contiguous";
    TypeVector         "MPI_Type_vector";
    TypeIndexed        "MPI_Type_indexed";
    TypeCreateStruct   "MPI_Type_create_struct";
    TypeCommit         "MPI_Type_commit";
    TypeFree           "MPI_Type_free"            object(FreeDatatype(0));
    SendInit           "MPI_Send_init"            persistent(6);
    BsendInit          "MPI_Bsend_init"           persistent(6);
    SsendInit          "MPI_Ssend_init"           persistent(6);
    RsendInit          "MPI_Rsend_init"           persistent(6);
    RecvInit           "MPI_Recv_init"            persistent(6);
    Start              "MPI_Start";
    Startall           "MPI_Startall";
    CartCreate         "MPI_Cart_create"          object(NewComm(5));
    CartRank           "MPI_Cart_rank";
    CartCoords         "MPI_Cart_coords";
    CartShift          "MPI_Cart_shift";
    DimsCreate         "MPI_Dims_create";
    SendrecvReplace    "MPI_Sendrecv_replace"     send(3) recv(5, 6) status(8);
}

impl FuncId {
    /// Numeric id (stable, dense) used in call signatures.
    #[inline]
    pub fn id(self) -> u16 {
        self as u16
    }

    /// Inverse of [`FuncId::id`].
    pub fn from_id(id: u16) -> Option<FuncId> {
        FuncId::ALL.get(id as usize).copied().filter(|f| f.id() == id)
    }
}

/// One argument of a record, as the walk over a [`Shape`] reads it: the raw
/// [`Arg`] a tracer is handed, or the decoded form a trace stores. Every
/// getter answers `None` (or `false`) for an argument of another kind, so a
/// record that does not have its function's shape reads as one that
/// completed and matched nothing.
pub trait ArgView {
    /// A returned status.
    type Status: Copy;

    fn int(&self) -> Option<i64>;

    fn ints(&self) -> Option<&[i64]>;

    /// How many requests the argument holds: 1 for a `Request`.
    fn requests(&self) -> Option<usize>;

    /// Request `k` of the argument, unless it is `MPI_REQUEST_NULL`.
    fn request_at(&self, k: usize) -> Option<u64>;

    /// Status `k` of the argument; a lone `Status` is status 0.
    fn status_at(&self, k: usize) -> Option<Self::Status>;

    fn is_any_source(&self) -> bool;

    fn is_proc_null(&self) -> bool;

    fn is_any_tag(&self) -> bool;

    /// The `(source - base, tag)` a status names once its source is a
    /// rank; `None` while it is still a wildcard or `MPI_PROC_NULL`.
    fn relative_to(status: Self::Status, base: i64) -> Option<(i32, i32)>;
}

impl ArgView for Arg {
    type Status = (i32, i32);

    fn int(&self) -> Option<i64> {
        match self {
            Arg::Int(v) => Some(*v),
            _ => None,
        }
    }

    fn ints(&self) -> Option<&[i64]> {
        match self {
            Arg::IntArr(v) => Some(v),
            _ => None,
        }
    }

    fn requests(&self) -> Option<usize> {
        match self {
            Arg::Request(_) => Some(1),
            Arg::RequestArr(v) => Some(v.len()),
            _ => None,
        }
    }

    fn request_at(&self, k: usize) -> Option<u64> {
        let raw = match self {
            Arg::Request(r) if k == 0 => *r,
            Arg::RequestArr(v) => *v.get(k)?,
            _ => return None,
        };
        (raw != REQUEST_NULL.0).then_some(raw)
    }

    fn status_at(&self, k: usize) -> Option<(i32, i32)> {
        match self {
            Arg::Status { source, tag } if k == 0 => Some((*source, *tag)),
            Arg::StatusArr(v) => v.get(k).copied(),
            _ => None,
        }
    }

    fn is_any_source(&self) -> bool {
        matches!(self, Arg::Rank(ANY_SOURCE))
    }

    fn is_proc_null(&self) -> bool {
        matches!(self, Arg::Rank(PROC_NULL))
    }

    fn is_any_tag(&self) -> bool {
        matches!(self, Arg::Tag(ANY_TAG))
    }

    fn relative_to((source, tag): (i32, i32), base: i64) -> Option<(i32, i32)> {
        (source >= 0).then(|| ((source as i64 - base) as i32, tag))
    }
}

/// One request a completion record reports complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Done<S> {
    /// Which of the record's returned statuses is this request's.
    pub slot: usize,
    pub request: u64,
    pub status: Option<S>,
}

/// A completion record read through its shape: which of its requests each
/// of its returned statuses belongs to.
pub struct Completions<'a, A> {
    form: Form,
    requests: &'a A,
    index: Option<&'a A>,
    status: Option<&'a A>,
    /// Statuses `0..slots` may belong to a completed request.
    slots: usize,
}

impl<A: ArgView> Completions<'_, A> {
    /// The request whose completion the record's status `slot` reports.
    /// This is the one place that says which request a `Wait*` / `Test*`
    /// record completed.
    pub fn slot(&self, slot: usize) -> Option<Done<A::Status>> {
        let entry = match self.form {
            Form::One | Form::All => slot,
            Form::Any if slot == 0 => usize::try_from(self.index?.int()?).ok()?,
            Form::Any => return None,
            Form::Some => usize::try_from(*self.index?.ints()?.get(slot)?).ok()?,
        };
        let request = self.requests.request_at(entry)?;
        Some(Done { slot, request, status: self.status.and_then(|a| a.status_at(slot)) })
    }
}

/// The walk: what a record with this shape completed and matched. Every
/// position is looked up with `get`, so the walk is safe on records decoded
/// from a container nobody vouches for.
impl Shape {
    /// Point-to-point calls carry the ranks that are encoded relative to
    /// the caller; a collective's root is the same number on every rank.
    pub fn is_p2p(&self) -> bool {
        self.dst.is_some() || self.recv.is_some() || self.completes.is_some()
    }

    fn arg<A>(args: &[A], at: Option<u8>) -> Option<&A> {
        args.get(at? as usize)
    }

    /// Whether the call's outcome is real: no flag argument, or a flag of 1.
    pub fn flagged<A: ArgView>(&self, args: &[A]) -> bool {
        self.flag.is_none() || Self::arg(args, self.flag).and_then(A::int) == Some(1)
    }

    /// The record's completions with their positions resolved; `None` when
    /// it reports none (not a completion call, a flag of 0, an argument of
    /// the wrong kind).
    pub fn completions<'a, A: ArgView>(&self, args: &'a [A]) -> Option<Completions<'a, A>> {
        let c = self.completes.filter(|_| self.flagged(args))?;
        let requests = args.get(c.requests as usize)?;
        let index = Self::arg(args, c.index);
        let slots = match c.form {
            Form::One | Form::All => requests.requests()?,
            Form::Any => 1,
            Form::Some => index?.ints()?.len(),
        };
        let status = Self::arg(args, self.status);
        Some(Completions { form: c.form, requests, index, status, slots })
    }

    /// Every request the record completed, by ascending status slot.
    pub fn completed<'a, A: ArgView>(
        &self,
        args: &'a [A],
    ) -> impl Iterator<Item = Done<A::Status>> + 'a {
        let completions = self.completions(args);
        let slots = completions.as_ref().map_or(0, |c| c.slots);
        (0..slots).filter_map(move |slot| completions.as_ref()?.slot(slot))
    }

    /// The request the record created.
    pub fn created<A: ArgView>(&self, args: &[A]) -> Option<u64> {
        args.get(self.creates?.at as usize)?.request_at(0)
    }

    /// Whether the record posts a receive or probe that names no one
    /// message: `MPI_ANY_SOURCE` or `MPI_ANY_TAG`, and not `MPI_PROC_NULL`.
    pub fn is_wildcard<A: ArgView>(&self, args: &[A]) -> bool {
        let Some(recv) = self.recv else { return false };
        let source = args.get(recv.source as usize);
        let any_tag = args.get(recv.tag as usize).is_some_and(A::is_any_tag);
        !source.is_some_and(A::is_proc_null) && (source.is_some_and(A::is_any_source) || any_tag)
    }

    /// The one status the call itself returned, when its flag says it is
    /// real: what a receive or probe matched.
    pub fn outcome<A: ArgView>(&self, args: &[A]) -> Option<A::Status> {
        Self::arg(args, self.status).filter(|_| self.flagged(args))?.status_at(0)
    }
}

/// Tools whose coverage Table 1 compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ToolSupport {
    Pilgrim,
    ScalaTrace,
    Cypress,
}

/// Coarse function families used for coverage classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Env,
    P2p,
    P2pNb,
    Persistent,
    Partitioned,
    WaitTest,
    Probe,
    Coll,
    CollNb,
    CollPersistent,
    CommGroup,
    Topo,
    Datatype,
    Rma,
    Io,
    InfoErr,
    Attr,
    ToolIface,
    Session,
}

/// The MPI-4.0 function inventory with family classification.
pub struct FunctionRegistry {
    entries: Vec<(&'static str, Family)>,
}

impl FunctionRegistry {
    /// Builds the inventory. The list is generated from the MPI-4.0
    /// function index by family, mirroring how Pilgrim generates its
    /// wrappers from the standard documents (§3.1).
    pub fn mpi40() -> Self {
        let mut entries: Vec<(&'static str, Family)> = Vec::with_capacity(460);
        let mut add = |names: &[&'static str], fam: Family| {
            // Used via closure captured below.
            for n in names {
                entries.push((n, fam));
            }
        };
        add(ENV_FUNCS, Family::Env);
        add(P2P_FUNCS, Family::P2p);
        add(P2P_NB_FUNCS, Family::P2pNb);
        add(PERSISTENT_FUNCS, Family::Persistent);
        add(PARTITIONED_FUNCS, Family::Partitioned);
        add(WAIT_TEST_FUNCS, Family::WaitTest);
        add(PROBE_FUNCS, Family::Probe);
        add(COLL_FUNCS, Family::Coll);
        add(COLL_NB_FUNCS, Family::CollNb);
        add(COLL_PERSISTENT_FUNCS, Family::CollPersistent);
        add(COMM_GROUP_FUNCS, Family::CommGroup);
        add(TOPO_FUNCS, Family::Topo);
        add(DATATYPE_FUNCS, Family::Datatype);
        add(RMA_FUNCS, Family::Rma);
        add(IO_FUNCS, Family::Io);
        add(INFO_ERR_FUNCS, Family::InfoErr);
        add(ATTR_FUNCS, Family::Attr);
        add(TOOL_FUNCS, Family::ToolIface);
        add(SESSION_FUNCS, Family::Session);
        FunctionRegistry { entries }
    }

    /// Total function count (paper reports 446 for MPI 4.0 RC).
    pub fn total(&self) -> usize {
        self.entries.len()
    }

    /// Whether `tool` records calls to `name`.
    pub fn supports(&self, tool: ToolSupport, name: &str) -> bool {
        let fam = match self.entries.iter().find(|(n, _)| *n == name) {
            Some(&(_, f)) => f,
            None => return false,
        };
        Self::family_supported(tool, fam, name)
    }

    fn family_supported(tool: ToolSupport, fam: Family, name: &str) -> bool {
        match tool {
            // Pilgrim's wrappers are generated from the standard: complete.
            ToolSupport::Pilgrim => true,
            // ScalaTrace records communication + core management, but no
            // Test calls, no partitioned/RMA/IO/tool interfaces.
            ToolSupport::ScalaTrace => match fam {
                Family::Env => SCALATRACE_ENV.contains(&name),
                Family::P2p => SCALATRACE_P2P.contains(&name),
                Family::P2pNb => SCALATRACE_P2P_NB.contains(&name),
                Family::Persistent => true,
                Family::WaitTest => name.starts_with("MPI_Wait"),
                Family::Probe => name == "MPI_Probe" || name == "MPI_Iprobe",
                Family::Coll | Family::CollNb => true,
                Family::CommGroup => !SCALATRACE_COMM_EXCLUDE.contains(&name),
                Family::Topo => name.starts_with("MPI_Cart") || name == "MPI_Dims_create",
                Family::Datatype => DATATYPE_CORE.contains(&name),
                _ => false,
            },
            // Cypress records the basic p2p/collective core only.
            ToolSupport::Cypress => CYPRESS_FUNCS.contains(&name),
        }
    }

    /// Number of functions `tool` records.
    pub fn supported_count(&self, tool: ToolSupport) -> usize {
        self.entries.iter().filter(|(n, f)| Self::family_supported(tool, *f, n)).count()
    }

    /// Iterates `(name, family)` entries.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, Family)> + '_ {
        self.entries.iter().copied()
    }
}

const ENV_FUNCS: &[&str] = &[
    "MPI_Init",
    "MPI_Init_thread",
    "MPI_Initialized",
    "MPI_Finalize",
    "MPI_Finalized",
    "MPI_Abort",
    "MPI_Get_processor_name",
    "MPI_Get_version",
    "MPI_Get_library_version",
    "MPI_Query_thread",
    "MPI_Is_thread_main",
    "MPI_Pcontrol",
    "MPI_Aint_add",
    "MPI_Aint_diff",
    "MPI_Get_hw_resource_info",
];

const P2P_FUNCS: &[&str] = &[
    "MPI_Send",
    "MPI_Bsend",
    "MPI_Ssend",
    "MPI_Rsend",
    "MPI_Recv",
    "MPI_Sendrecv",
    "MPI_Sendrecv_replace",
    "MPI_Buffer_attach",
    "MPI_Buffer_detach",
    "MPI_Buffer_flush",
    "MPI_Buffer_iflush",
    "MPI_Comm_attach_buffer",
    "MPI_Comm_detach_buffer",
    "MPI_Session_attach_buffer",
    "MPI_Session_detach_buffer",
    "MPI_Get_count",
    "MPI_Get_elements",
    "MPI_Get_elements_x",
    "MPI_Status_set_elements",
    "MPI_Status_set_elements_x",
    "MPI_Status_set_cancelled",
    "MPI_Status_set_error",
    "MPI_Status_set_source",
    "MPI_Status_set_tag",
];

const P2P_NB_FUNCS: &[&str] = &[
    "MPI_Isend",
    "MPI_Ibsend",
    "MPI_Issend",
    "MPI_Irsend",
    "MPI_Irecv",
    "MPI_Isendrecv",
    "MPI_Isendrecv_replace",
    "MPI_Cancel",
    "MPI_Request_free",
    "MPI_Request_get_status",
    "MPI_Request_get_status_all",
    "MPI_Request_get_status_any",
    "MPI_Request_get_status_some",
    "MPI_Grequest_start",
    "MPI_Grequest_complete",
];

const PERSISTENT_FUNCS: &[&str] = &[
    "MPI_Send_init",
    "MPI_Bsend_init",
    "MPI_Ssend_init",
    "MPI_Rsend_init",
    "MPI_Recv_init",
    "MPI_Start",
    "MPI_Startall",
];

const PARTITIONED_FUNCS: &[&str] = &[
    "MPI_Psend_init",
    "MPI_Precv_init",
    "MPI_Pready",
    "MPI_Pready_range",
    "MPI_Pready_list",
    "MPI_Parrived",
];

const WAIT_TEST_FUNCS: &[&str] = &[
    "MPI_Wait",
    "MPI_Waitall",
    "MPI_Waitany",
    "MPI_Waitsome",
    "MPI_Test",
    "MPI_Testall",
    "MPI_Testany",
    "MPI_Testsome",
    "MPI_Test_cancelled",
];

const PROBE_FUNCS: &[&str] =
    &["MPI_Probe", "MPI_Iprobe", "MPI_Mprobe", "MPI_Improbe", "MPI_Mrecv", "MPI_Imrecv"];

const COLL_FUNCS: &[&str] = &[
    "MPI_Barrier",
    "MPI_Bcast",
    "MPI_Gather",
    "MPI_Gatherv",
    "MPI_Scatter",
    "MPI_Scatterv",
    "MPI_Allgather",
    "MPI_Allgatherv",
    "MPI_Alltoall",
    "MPI_Alltoallv",
    "MPI_Alltoallw",
    "MPI_Reduce",
    "MPI_Allreduce",
    "MPI_Reduce_scatter",
    "MPI_Reduce_scatter_block",
    "MPI_Scan",
    "MPI_Exscan",
    "MPI_Reduce_local",
    "MPI_Op_create",
    "MPI_Op_free",
    "MPI_Op_commutative",
];

const COLL_NB_FUNCS: &[&str] = &[
    "MPI_Ibarrier",
    "MPI_Ibcast",
    "MPI_Igather",
    "MPI_Igatherv",
    "MPI_Iscatter",
    "MPI_Iscatterv",
    "MPI_Iallgather",
    "MPI_Iallgatherv",
    "MPI_Ialltoall",
    "MPI_Ialltoallv",
    "MPI_Ialltoallw",
    "MPI_Ireduce",
    "MPI_Iallreduce",
    "MPI_Ireduce_scatter",
    "MPI_Ireduce_scatter_block",
    "MPI_Iscan",
    "MPI_Iexscan",
];

const COLL_PERSISTENT_FUNCS: &[&str] = &[
    "MPI_Barrier_init",
    "MPI_Bcast_init",
    "MPI_Gather_init",
    "MPI_Gatherv_init",
    "MPI_Scatter_init",
    "MPI_Scatterv_init",
    "MPI_Allgather_init",
    "MPI_Allgatherv_init",
    "MPI_Alltoall_init",
    "MPI_Alltoallv_init",
    "MPI_Alltoallw_init",
    "MPI_Reduce_init",
    "MPI_Allreduce_init",
    "MPI_Reduce_scatter_init",
    "MPI_Reduce_scatter_block_init",
    "MPI_Scan_init",
    "MPI_Exscan_init",
];

const COMM_GROUP_FUNCS: &[&str] = &[
    "MPI_Comm_rank",
    "MPI_Comm_size",
    "MPI_Comm_dup",
    "MPI_Comm_dup_with_info",
    "MPI_Comm_idup",
    "MPI_Comm_idup_with_info",
    "MPI_Comm_split",
    "MPI_Comm_split_type",
    "MPI_Comm_create",
    "MPI_Comm_create_group",
    "MPI_Comm_create_from_group",
    "MPI_Comm_free",
    "MPI_Comm_group",
    "MPI_Comm_compare",
    "MPI_Comm_test_inter",
    "MPI_Comm_remote_size",
    "MPI_Comm_remote_group",
    "MPI_Comm_set_name",
    "MPI_Comm_get_name",
    "MPI_Comm_set_info",
    "MPI_Comm_get_info",
    "MPI_Intercomm_create",
    "MPI_Intercomm_create_from_groups",
    "MPI_Intercomm_merge",
    "MPI_Group_size",
    "MPI_Group_rank",
    "MPI_Group_translate_ranks",
    "MPI_Group_compare",
    "MPI_Group_union",
    "MPI_Group_intersection",
    "MPI_Group_difference",
    "MPI_Group_incl",
    "MPI_Group_excl",
    "MPI_Group_range_incl",
    "MPI_Group_range_excl",
    "MPI_Group_free",
    "MPI_Group_from_session_pset",
    "MPI_Comm_spawn",
    "MPI_Comm_spawn_multiple",
    "MPI_Comm_get_parent",
    "MPI_Comm_accept",
    "MPI_Comm_connect",
    "MPI_Comm_disconnect",
    "MPI_Comm_join",
    "MPI_Open_port",
    "MPI_Close_port",
    "MPI_Publish_name",
    "MPI_Unpublish_name",
    "MPI_Lookup_name",
];

const TOPO_FUNCS: &[&str] = &[
    "MPI_Cart_create",
    "MPI_Cart_get",
    "MPI_Cart_rank",
    "MPI_Cart_coords",
    "MPI_Cart_shift",
    "MPI_Cart_sub",
    "MPI_Cart_map",
    "MPI_Cartdim_get",
    "MPI_Dims_create",
    "MPI_Graph_create",
    "MPI_Graph_get",
    "MPI_Graph_map",
    "MPI_Graph_neighbors",
    "MPI_Graph_neighbors_count",
    "MPI_Graphdims_get",
    "MPI_Topo_test",
    "MPI_Dist_graph_create",
    "MPI_Dist_graph_create_adjacent",
    "MPI_Dist_graph_neighbors",
    "MPI_Dist_graph_neighbors_count",
    "MPI_Neighbor_allgather",
    "MPI_Neighbor_allgatherv",
    "MPI_Neighbor_alltoall",
    "MPI_Neighbor_alltoallv",
    "MPI_Neighbor_alltoallw",
    "MPI_Ineighbor_allgather",
    "MPI_Ineighbor_allgatherv",
    "MPI_Ineighbor_alltoall",
    "MPI_Ineighbor_alltoallv",
    "MPI_Ineighbor_alltoallw",
    "MPI_Neighbor_allgather_init",
    "MPI_Neighbor_allgatherv_init",
    "MPI_Neighbor_alltoall_init",
    "MPI_Neighbor_alltoallv_init",
    "MPI_Neighbor_alltoallw_init",
];

const DATATYPE_FUNCS: &[&str] = &[
    "MPI_Type_contiguous",
    "MPI_Type_vector",
    "MPI_Type_create_hvector",
    "MPI_Type_indexed",
    "MPI_Type_create_hindexed",
    "MPI_Type_create_indexed_block",
    "MPI_Type_create_hindexed_block",
    "MPI_Type_create_struct",
    "MPI_Type_create_subarray",
    "MPI_Type_create_darray",
    "MPI_Type_create_resized",
    "MPI_Type_commit",
    "MPI_Type_free",
    "MPI_Type_dup",
    "MPI_Type_size",
    "MPI_Type_size_x",
    "MPI_Type_get_extent",
    "MPI_Type_get_extent_x",
    "MPI_Type_get_true_extent",
    "MPI_Type_get_true_extent_x",
    "MPI_Type_get_envelope",
    "MPI_Type_get_contents",
    "MPI_Type_get_name",
    "MPI_Type_set_name",
    "MPI_Type_match_size",
    "MPI_Type_create_f90_integer",
    "MPI_Type_create_f90_real",
    "MPI_Type_create_f90_complex",
    "MPI_Pack",
    "MPI_Unpack",
    "MPI_Pack_size",
    "MPI_Pack_external",
    "MPI_Unpack_external",
    "MPI_Pack_external_size",
    "MPI_Register_datarep",
];

const DATATYPE_CORE: &[&str] = &[
    "MPI_Type_contiguous",
    "MPI_Type_vector",
    "MPI_Type_indexed",
    "MPI_Type_create_struct",
    "MPI_Type_commit",
    "MPI_Type_free",
    "MPI_Type_size",
    "MPI_Pack",
    "MPI_Unpack",
];

const RMA_FUNCS: &[&str] = &[
    "MPI_Win_create",
    "MPI_Win_allocate",
    "MPI_Win_allocate_shared",
    "MPI_Win_create_dynamic",
    "MPI_Win_attach",
    "MPI_Win_detach",
    "MPI_Win_free",
    "MPI_Win_get_group",
    "MPI_Win_set_info",
    "MPI_Win_get_info",
    "MPI_Win_set_name",
    "MPI_Win_get_name",
    "MPI_Win_fence",
    "MPI_Win_start",
    "MPI_Win_complete",
    "MPI_Win_post",
    "MPI_Win_wait",
    "MPI_Win_test",
    "MPI_Win_lock",
    "MPI_Win_lock_all",
    "MPI_Win_unlock",
    "MPI_Win_unlock_all",
    "MPI_Win_flush",
    "MPI_Win_flush_all",
    "MPI_Win_flush_local",
    "MPI_Win_flush_local_all",
    "MPI_Win_sync",
    "MPI_Win_shared_query",
    "MPI_Put",
    "MPI_Get",
    "MPI_Accumulate",
    "MPI_Get_accumulate",
    "MPI_Fetch_and_op",
    "MPI_Compare_and_swap",
    "MPI_Rput",
    "MPI_Rget",
    "MPI_Raccumulate",
    "MPI_Rget_accumulate",
    "MPI_Win_create_errhandler",
    "MPI_Win_set_errhandler",
    "MPI_Win_get_errhandler",
    "MPI_Win_call_errhandler",
];

const IO_FUNCS: &[&str] = &[
    "MPI_File_open",
    "MPI_File_close",
    "MPI_File_delete",
    "MPI_File_set_size",
    "MPI_File_preallocate",
    "MPI_File_get_size",
    "MPI_File_get_group",
    "MPI_File_get_amode",
    "MPI_File_set_info",
    "MPI_File_get_info",
    "MPI_File_set_view",
    "MPI_File_get_view",
    "MPI_File_read_at",
    "MPI_File_read_at_all",
    "MPI_File_write_at",
    "MPI_File_write_at_all",
    "MPI_File_iread_at",
    "MPI_File_iwrite_at",
    "MPI_File_iread_at_all",
    "MPI_File_iwrite_at_all",
    "MPI_File_read",
    "MPI_File_read_all",
    "MPI_File_write",
    "MPI_File_write_all",
    "MPI_File_iread",
    "MPI_File_iwrite",
    "MPI_File_iread_all",
    "MPI_File_iwrite_all",
    "MPI_File_seek",
    "MPI_File_get_position",
    "MPI_File_get_byte_offset",
    "MPI_File_read_shared",
    "MPI_File_write_shared",
    "MPI_File_iread_shared",
    "MPI_File_iwrite_shared",
    "MPI_File_read_ordered",
    "MPI_File_write_ordered",
    "MPI_File_seek_shared",
    "MPI_File_get_position_shared",
    "MPI_File_read_at_all_begin",
    "MPI_File_read_at_all_end",
    "MPI_File_write_at_all_begin",
    "MPI_File_write_at_all_end",
    "MPI_File_read_all_begin",
    "MPI_File_read_all_end",
    "MPI_File_write_all_begin",
    "MPI_File_write_all_end",
    "MPI_File_read_ordered_begin",
    "MPI_File_read_ordered_end",
    "MPI_File_write_ordered_begin",
    "MPI_File_write_ordered_end",
    "MPI_File_get_type_extent",
    "MPI_File_set_atomicity",
    "MPI_File_get_atomicity",
    "MPI_File_sync",
    "MPI_File_create_errhandler",
    "MPI_File_set_errhandler",
    "MPI_File_get_errhandler",
    "MPI_File_call_errhandler",
];

const INFO_ERR_FUNCS: &[&str] = &[
    "MPI_Info_create",
    "MPI_Info_create_env",
    "MPI_Info_delete",
    "MPI_Info_dup",
    "MPI_Info_free",
    "MPI_Info_get_nkeys",
    "MPI_Info_get_nthkey",
    "MPI_Info_get_string",
    "MPI_Info_set",
    "MPI_Info_get",
    "MPI_Info_get_valuelen",
    "MPI_Errhandler_create",
    "MPI_Errhandler_free",
    "MPI_Errhandler_get",
    "MPI_Errhandler_set",
    "MPI_Error_class",
    "MPI_Error_string",
    "MPI_Add_error_class",
    "MPI_Add_error_code",
    "MPI_Add_error_string",
    "MPI_Remove_error_class",
    "MPI_Remove_error_code",
    "MPI_Remove_error_string",
    "MPI_Comm_create_errhandler",
    "MPI_Comm_set_errhandler",
    "MPI_Comm_get_errhandler",
    "MPI_Comm_call_errhandler",
];

const ATTR_FUNCS: &[&str] = &[
    "MPI_Comm_create_keyval",
    "MPI_Comm_free_keyval",
    "MPI_Comm_set_attr",
    "MPI_Comm_get_attr",
    "MPI_Comm_delete_attr",
    "MPI_Type_create_keyval",
    "MPI_Type_free_keyval",
    "MPI_Type_set_attr",
    "MPI_Type_get_attr",
    "MPI_Type_delete_attr",
    "MPI_Win_create_keyval",
    "MPI_Win_free_keyval",
    "MPI_Win_set_attr",
    "MPI_Win_get_attr",
    "MPI_Win_delete_attr",
    "MPI_Keyval_create",
    "MPI_Keyval_free",
    "MPI_Attr_put",
    "MPI_Attr_get",
    "MPI_Attr_delete",
];

const TOOL_FUNCS: &[&str] = &[
    "MPI_T_init_thread",
    "MPI_T_finalize",
    "MPI_T_cvar_get_num",
    "MPI_T_cvar_get_info",
    "MPI_T_cvar_get_index",
    "MPI_T_cvar_handle_alloc",
    "MPI_T_cvar_handle_free",
    "MPI_T_cvar_read",
    "MPI_T_cvar_write",
    "MPI_T_pvar_get_num",
    "MPI_T_pvar_get_info",
    "MPI_T_pvar_get_index",
    "MPI_T_pvar_session_create",
    "MPI_T_pvar_session_free",
    "MPI_T_pvar_handle_alloc",
    "MPI_T_pvar_handle_free",
    "MPI_T_pvar_start",
    "MPI_T_pvar_stop",
    "MPI_T_pvar_read",
    "MPI_T_pvar_write",
    "MPI_T_pvar_reset",
    "MPI_T_pvar_readreset",
    "MPI_T_category_get_num",
    "MPI_T_category_get_info",
    "MPI_T_category_get_index",
    "MPI_T_category_get_cvars",
    "MPI_T_category_get_pvars",
    "MPI_T_category_get_categories",
    "MPI_T_category_changed",
    "MPI_T_category_get_num_events",
    "MPI_T_category_get_events",
    "MPI_T_enum_get_info",
    "MPI_T_enum_get_item",
    "MPI_T_source_get_num",
    "MPI_T_source_get_info",
    "MPI_T_source_get_timestamp",
    "MPI_T_event_get_num",
    "MPI_T_event_get_info",
    "MPI_T_event_get_index",
    "MPI_T_event_handle_alloc",
    "MPI_T_event_handle_set_info",
    "MPI_T_event_handle_get_info",
    "MPI_T_event_handle_free",
    "MPI_T_event_register_callback",
    "MPI_T_event_callback_set_info",
    "MPI_T_event_callback_get_info",
    "MPI_T_event_set_dropped_handler",
    "MPI_T_event_read",
    "MPI_T_event_copy",
    "MPI_T_event_get_timestamp",
    "MPI_T_event_get_source",
];

const SESSION_FUNCS: &[&str] = &[
    "MPI_Session_init",
    "MPI_Session_finalize",
    "MPI_Session_get_num_psets",
    "MPI_Session_get_nth_pset",
    "MPI_Session_get_info",
    "MPI_Session_get_pset_info",
    "MPI_Session_create_errhandler",
    "MPI_Session_set_errhandler",
    "MPI_Session_get_errhandler",
    "MPI_Session_call_errhandler",
];

/// Environment functions ScalaTrace wraps.
const SCALATRACE_ENV: &[&str] = &[
    "MPI_Init",
    "MPI_Init_thread",
    "MPI_Initialized",
    "MPI_Finalize",
    "MPI_Finalized",
    "MPI_Abort",
];

/// Blocking p2p functions ScalaTrace wraps.
const SCALATRACE_P2P: &[&str] = &[
    "MPI_Send",
    "MPI_Bsend",
    "MPI_Ssend",
    "MPI_Rsend",
    "MPI_Recv",
    "MPI_Sendrecv",
    "MPI_Sendrecv_replace",
    "MPI_Buffer_attach",
    "MPI_Buffer_detach",
    "MPI_Get_count",
    "MPI_Get_elements",
];

/// Non-blocking p2p functions ScalaTrace wraps.
const SCALATRACE_P2P_NB: &[&str] = &[
    "MPI_Isend",
    "MPI_Ibsend",
    "MPI_Issend",
    "MPI_Irsend",
    "MPI_Irecv",
    "MPI_Cancel",
    "MPI_Request_free",
    "MPI_Request_get_status",
];

/// Dynamic-process / name-service functions ScalaTrace does not wrap.
const SCALATRACE_COMM_EXCLUDE: &[&str] = &[
    "MPI_Comm_spawn",
    "MPI_Comm_spawn_multiple",
    "MPI_Comm_get_parent",
    "MPI_Comm_accept",
    "MPI_Comm_connect",
    "MPI_Comm_disconnect",
    "MPI_Comm_join",
    "MPI_Open_port",
    "MPI_Close_port",
    "MPI_Publish_name",
    "MPI_Unpublish_name",
    "MPI_Lookup_name",
    "MPI_Comm_create_from_group",
    "MPI_Group_from_session_pset",
    "MPI_Intercomm_create_from_groups",
    "MPI_Comm_idup_with_info",
];

/// Functions Cypress records (≈56, per Table 1 and the Cypress paper's
/// focus on blocking/non-blocking p2p + common collectives).
const CYPRESS_FUNCS: &[&str] = &[
    "MPI_Init",
    "MPI_Init_thread",
    "MPI_Finalize",
    "MPI_Abort",
    "MPI_Comm_rank",
    "MPI_Comm_size",
    "MPI_Comm_dup",
    "MPI_Comm_split",
    "MPI_Comm_create",
    "MPI_Comm_free",
    "MPI_Comm_group",
    "MPI_Group_incl",
    "MPI_Group_excl",
    "MPI_Group_free",
    "MPI_Send",
    "MPI_Bsend",
    "MPI_Ssend",
    "MPI_Rsend",
    "MPI_Recv",
    "MPI_Sendrecv",
    "MPI_Isend",
    "MPI_Ibsend",
    "MPI_Issend",
    "MPI_Irsend",
    "MPI_Irecv",
    "MPI_Waitall",
    "MPI_Waitany",
    "MPI_Waitsome",
    "MPI_Barrier",
    "MPI_Bcast",
    "MPI_Gather",
    "MPI_Gatherv",
    "MPI_Scatter",
    "MPI_Scatterv",
    "MPI_Allgather",
    "MPI_Allgatherv",
    "MPI_Alltoall",
    "MPI_Alltoallv",
    "MPI_Reduce",
    "MPI_Allreduce",
    "MPI_Reduce_scatter",
    "MPI_Scan",
    "MPI_Type_contiguous",
    "MPI_Type_vector",
    "MPI_Type_indexed",
    "MPI_Type_commit",
    "MPI_Type_free",
    "MPI_Type_size",
    "MPI_Pack",
    "MPI_Unpack",
    "MPI_Cart_create",
    "MPI_Cart_rank",
    "MPI_Cart_coords",
    "MPI_Cart_shift",
    "MPI_Dims_create",
    "MPI_Probe",
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn registry_has_no_duplicates() {
        let reg = FunctionRegistry::mpi40();
        let mut seen = HashSet::new();
        for (name, _) in reg.entries() {
            assert!(seen.insert(name), "duplicate registry entry {name}");
        }
    }

    #[test]
    fn registry_size_matches_paper_scale() {
        let reg = FunctionRegistry::mpi40();
        // The paper counts 446 C functions in MPI 4.0 RC (excluding
        // MPI_Wtime/MPI_Wtick). Our generated inventory must be in that
        // ballpark and definitely complete for Pilgrim.
        assert!((400..=470).contains(&reg.total()), "registry has {} functions", reg.total());
        assert_eq!(reg.supported_count(ToolSupport::Pilgrim), reg.total());
    }

    #[test]
    fn tool_coverage_matches_paper_ordering() {
        let reg = FunctionRegistry::mpi40();
        let p = reg.supported_count(ToolSupport::Pilgrim);
        let s = reg.supported_count(ToolSupport::ScalaTrace);
        let c = reg.supported_count(ToolSupport::Cypress);
        assert!(c < s && s < p, "coverage order must be Cypress < ScalaTrace < Pilgrim");
        assert!((100..=170).contains(&s), "ScalaTrace coverage ≈125, got {s}");
        assert!((40..=70).contains(&c), "Cypress coverage ≈56, got {c}");
    }

    #[test]
    fn scalatrace_skips_test_family() {
        let reg = FunctionRegistry::mpi40();
        assert!(!reg.supports(ToolSupport::ScalaTrace, "MPI_Testsome"));
        assert!(reg.supports(ToolSupport::ScalaTrace, "MPI_Waitall"));
        assert!(!reg.supports(ToolSupport::Cypress, "MPI_Testsome"));
        assert!(reg.supports(ToolSupport::Pilgrim, "MPI_Testsome"));
    }

    #[test]
    fn every_implemented_func_is_in_registry() {
        let reg = FunctionRegistry::mpi40();
        let names: HashSet<&str> = reg.entries().map(|(n, _)| n).collect();
        for &f in FuncId::ALL {
            assert!(names.contains(f.name()), "{} missing from registry", f.name());
        }
    }

    #[test]
    fn func_ids_are_dense_and_unique() {
        let mut seen = HashSet::new();
        for &f in FuncId::ALL {
            assert!(seen.insert(f.id()));
        }
        assert_eq!(seen.len(), FuncId::ALL.len());
    }
}
