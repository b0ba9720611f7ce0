//! The call-shape table (`mpi_sim::funcs`) against the simulator that
//! builds the records it describes, and the walk over it against input
//! nobody vouches for.
//!
//! The first test checks every record the workload catalogue and a body
//! that issues each completion, probe and persistent call produce against
//! its function's declared shape — spelled here over the raw `Arg` kinds,
//! not through the walk, so a row that drifts from `env.rs` fails by
//! function name. The second mutates such records (arguments dropped and
//! swapped, indices past the array and negative, flags and arrays of the
//! wrong kind) and feeds them, decoded from a container, to the walk's two
//! read-side consumers: `NondetLog::derive` and the comm-matrix classifier.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use mpi_sim::datatype::BasicType;
use mpi_sim::funcs::{Form, Object};
use mpi_sim::{Arg, CallRec, Env, FuncId, World, WorldConfig, ANY_SOURCE};
use pilgrim::cst::{Cst, SigStats};
use pilgrim::encode::{EncoderConfig, SigWriter};
use pilgrim::trace::TraceCompleteness;
use pilgrim::{GlobalTrace, NondetLog, PilgrimConfig, PilgrimTracer, QueryEngine, TraceIndex};
use pilgrim_sequitur::Grammar;
use proptest::prelude::*;

/// Every record each rank's tracer saw.
fn captured<B: Fn(&mut Env) + Send + Sync + 'static>(ranks: usize, body: B) -> Vec<CallRec> {
    let cfg = PilgrimConfig::new().capture_reference(true);
    let tracers = World::run(&WorldConfig::new(ranks), |r| PilgrimTracer::new(r, cfg), body);
    tracers.iter().flat_map(|t| t.captured().iter().map(|c| c.rec.clone())).collect()
}

/// Two ranks exchanging one message a round, each round completed by a
/// different call of the wait/test family; then the probes, the combined
/// send-receives and the persistent requests.
fn every_completion_call(env: &mut Env) {
    let peer = 1 - env.world_rank() as i32;
    let world = env.comm_world();
    let dt = env.basic(BasicType::LongLong);
    let (sbuf, rbuf) = (env.malloc(8), env.malloc(8));
    let exchange = |env: &mut Env| {
        [env.irecv(rbuf, 1, dt, peer, 0, world), env.isend(sbuf, 1, dt, peer, 0, world)]
    };
    let mut q = exchange(env);
    for h in &mut q {
        env.wait(h);
    }
    let mut q = exchange(env);
    env.waitall(&mut q);
    let mut q = exchange(env);
    while env.waitany(&mut q).is_some() {}
    let mut q = exchange(env);
    while !env.waitsome(&mut q).is_empty() {}
    let mut q = exchange(env);
    for h in &mut q {
        while env.test(h).is_none() {}
    }
    let mut q = exchange(env);
    while env.testall(&mut q).is_none() {}
    let (mut q, mut done) = (exchange(env), 0);
    while done < 2 {
        done += env.testany(&mut q).is_some() as usize;
    }
    let (mut q, mut done) = (exchange(env), 0);
    while done < 2 {
        done += env.testsome(&mut q).len();
    }
    env.send(sbuf, 1, dt, peer, 1, world);
    env.probe(ANY_SOURCE, 1, world);
    env.recv(rbuf, 1, dt, peer, 1, world);
    env.send(sbuf, 1, dt, peer, 2, world);
    while env.iprobe(peer, 2, world).is_none() {}
    env.recv(rbuf, 1, dt, ANY_SOURCE, 2, world);
    env.sendrecv(sbuf, 1, dt, peer, 3, rbuf, 1, dt, peer, 3, world);
    env.sendrecv_replace(sbuf, 1, dt, peer, 4, ANY_SOURCE, 4, world);
    let mut recv = env.recv_init(rbuf, 1, dt, peer, 5, world);
    let mut sends = [
        env.send_init(sbuf, 1, dt, peer, 5, world),
        env.bsend_init(sbuf, 1, dt, peer, 6, world),
        env.ssend_init(sbuf, 1, dt, peer, 7, world),
        env.rsend_init(sbuf, 1, dt, peer, 8, world),
    ];
    env.start(recv);
    env.startall(&sends);
    env.wait(&mut recv);
    env.waitall(&mut sends.clone());
    for tag in 6..=8 {
        env.recv(rbuf, 1, dt, peer, tag, world);
    }
    env.request_free(&mut recv);
    for h in &mut sends {
        env.request_free(h);
    }
}

/// What is wrong with `rec` as a record of its function's declared shape.
fn drift(rec: &CallRec) -> Result<(), String> {
    let shape = rec.func.shape();
    let at = |pos: u8, what: &str| {
        rec.args.get(pos as usize).ok_or(format!("no argument {pos} for its {what}"))
    };
    let want = |ok: bool, pos: u8, what: &str| {
        if ok {
            Ok(())
        } else {
            Err(format!("argument {pos} is {:?}, declared its {what}", rec.args[pos as usize]))
        }
    };
    if let Some(pos) = shape.dst {
        want(matches!(at(pos, "destination")?, Arg::Rank(_)), pos, "destination")?;
    }
    if let Some(recv) = shape.recv {
        want(matches!(at(recv.source, "source")?, Arg::Rank(_)), recv.source, "source")?;
        want(matches!(at(recv.tag, "tag")?, Arg::Tag(_)), recv.tag, "tag")?;
    }
    if let Some(creates) = shape.creates {
        let live = matches!(at(creates.at, "new request")?, Arg::Request(r) if *r != u64::MAX);
        want(live, creates.at, "new request")?;
    }
    let flag = match shape.flag {
        Some(pos) => match at(pos, "flag")? {
            Arg::Int(v @ 0..=1) => *v == 1,
            _ => return want(false, pos, "flag"),
        },
        None => true,
    };
    let statuses = match shape.status.map(|pos| (pos, at(pos, "status"))) {
        Some((_, Ok(Arg::Status { .. }))) => Some(1),
        Some((_, Ok(Arg::StatusArr(v)))) => Some(v.len()),
        Some((pos, found)) => return found.and(want(false, pos, "status")),
        None => None,
    };
    if let Some(c) = shape.completes {
        let requests = match (c.form, at(c.requests, "requests")?) {
            (Form::One, Arg::Request(_)) => 1,
            (Form::All | Form::Any | Form::Some, Arg::RequestArr(v)) => v.len(),
            _ => return want(false, c.requests, "requests"),
        };
        let index = c.index.map(|pos| (pos, at(pos, "index")));
        let reported = match (c.form, index) {
            (Form::One, None) => 1,
            (Form::All, None) => requests * flag as usize,
            (Form::Any, Some((pos, Ok(Arg::Int(i))))) => {
                want((-1..requests as i64).contains(i) && (flag || *i == -1), pos, "index")?;
                1
            }
            (Form::Some, Some((pos, Ok(Arg::IntArr(picked))))) => {
                let in_range = picked.iter().all(|i| (0..requests as i64).contains(i));
                want(in_range, pos, "indices")?;
                picked.len()
            }
            (_, Some((pos, found))) => return found.and(want(false, pos, "index")),
            (_, None) => return Err("declares no index".into()),
        };
        if !c.frees && statuses != Some(reported) {
            return Err(format!("{statuses:?} statuses for {reported} reported requests"));
        }
    }
    match shape.object {
        Some(Object::NewComm(pos) | Object::FreeComm(pos)) => {
            want(matches!(at(pos, "communicator")?, Arg::Comm(_)), pos, "communicator")?
        }
        Some(Object::FreeDatatype(pos)) => {
            want(matches!(at(pos, "datatype")?, Arg::Datatype(_)), pos, "datatype")?
        }
        Some(Object::FreeGroup(pos)) => {
            want(matches!(at(pos, "group")?, Arg::Group(_)), pos, "group")?
        }
        None => {}
    }
    // And nothing the shape would have to declare goes undeclared.
    for (pos, arg) in rec.args.iter().enumerate() {
        let pos = Some(pos as u8);
        let declared = match arg {
            Arg::Status { .. } | Arg::StatusArr(_) => shape.status == pos,
            Arg::Request(_) | Arg::RequestArr(_) => {
                shape.creates.map(|c| c.at) == pos
                    || shape.completes.map(|c| c.requests) == pos
                    || matches!(rec.func, FuncId::Start | FuncId::Startall)
            }
            _ => true,
        };
        if !declared {
            return Err(format!("{arg:?} at {pos:?} is in no clause of the row"));
        }
    }
    Ok(())
}

#[test]
fn every_record_the_simulator_builds_has_its_declared_shape() {
    let mut records = captured(2, every_completion_call);
    for name in mpi_workloads::ALL_WORKLOADS {
        let body = mpi_workloads::by_name(name, 3);
        records.extend(captured(4, move |env| body(env)));
    }
    let mut seen: BTreeMap<FuncId, usize> = BTreeMap::new();
    for rec in &records {
        if let Err(why) = drift(rec) {
            panic!("{} does not have the shape funcs.rs declares: {why}\n{rec:?}", rec.func.name());
        }
        *seen.entry(rec.func).or_default() += 1;
    }
    // One witness per completion form, by name, and every call the body
    // above exists to issue.
    use FuncId::*;
    for (form, witness) in
        [(Form::One, Test), (Form::All, Testall), (Form::Any, Testany), (Form::Some, Testsome)]
    {
        assert_eq!(witness.shape().completes.map(|c| c.form), Some(form));
        assert!(seen.contains_key(&witness), "no {} record for form {form:?}", witness.name());
    }
    let issued = [
        Wait,
        Waitall,
        Waitany,
        Waitsome,
        Test,
        Testall,
        Testany,
        Testsome,
        Probe,
        Iprobe,
        Sendrecv,
        SendrecvReplace,
        Start,
        Startall,
        RequestFree,
        SendInit,
        BsendInit,
        SsendInit,
        RsendInit,
        RecvInit,
    ];
    for func in issued {
        assert!(seen.contains_key(&func), "no {} record was checked", func.name());
    }
}

/// One well-formed record of every function the catalogue and the body
/// above reach: what the hostile calls below are mutations of.
fn templates() -> &'static [CallRec] {
    static TEMPLATES: OnceLock<Vec<CallRec>> = OnceLock::new();
    TEMPLATES.get_or_init(|| {
        let farm = mpi_workloads::by_name("master_worker", 2);
        let mut records = captured(2, every_completion_call);
        records.extend(captured(3, move |env| farm(env)));
        let mut latest: BTreeMap<FuncId, CallRec> = BTreeMap::new();
        // The last record of a function: its requests are live and its
        // completions are real more often than in the first.
        latest.extend(records.into_iter().map(|rec| (rec.func, rec)));
        latest.into_values().collect()
    })
}

/// Applies one edit to a record; `pos` and `val` are reduced to whatever
/// the record has.
fn mutate(rec: &mut CallRec, (op, pos, val): (u8, usize, i64)) {
    let n = rec.args.len();
    if n == 0 {
        return;
    }
    let pos = pos % n;
    match (op % 6, &mut rec.args[pos]) {
        (0, _) => drop(rec.args.remove(pos)),
        (1, _) => rec.args.swap(pos, (pos + 1) % n),
        (2, Arg::Int(v)) => *v = val,
        (2, Arg::IntArr(v)) => v.push(val),
        (3, Arg::IntArr(v)) => v.iter_mut().for_each(|x| *x = val - *x),
        (3, Arg::RequestArr(v)) => v.truncate(val.unsigned_abs() as usize % (v.len() + 1)),
        (3, Arg::StatusArr(v)) => v.truncate(val.unsigned_abs() as usize % (v.len() + 1)),
        (4, arg) => *arg = Arg::Int(val),
        (5, arg) => *arg = Arg::IntArr(vec![val, -val, val + 1]),
        _ => {}
    }
}

/// A one-rank container whose calls are `records`, encoded argument by
/// argument with request ids folded onto four symbols so that creations
/// and completions meet.
fn container_of(records: &[CallRec]) -> GlobalTrace {
    let cfg = EncoderConfig::default();
    let mut cst = Cst::new();
    let mut grammar = Grammar::new();
    for rec in records {
        let mut w = SigWriter::new(rec.func.id());
        for arg in &rec.args {
            match arg {
                Arg::Int(v) => w.int(*v),
                Arg::Rank(r) => w.rank(*r, 1, &cfg),
                Arg::Tag(t) => w.msg_tag(*t, 1, &cfg),
                Arg::Comm(h) => w.comm(*h as u64),
                Arg::Datatype(h) => w.datatype(*h as u64),
                Arg::Op(o) => w.op(*o),
                Arg::Group(h) => w.group(*h as u64),
                Arg::Request(r) => w.request(if *r == u64::MAX { *r } else { r % 4 }),
                Arg::RequestArr(v) => {
                    w.request_arr(v.iter().map(|r| (*r != u64::MAX).then_some(r % 4)))
                }
                Arg::Ptr(addr) => w.ptr(0, *addr, &cfg),
                Arg::Status { source, tag } => w.status(*source, *tag, 1, &cfg),
                Arg::StatusArr(v) => w.status_arr(v, 1, &cfg),
                Arg::IntArr(v) => w.int_arr(v),
                Arg::Color(c) => w.color(*c, 1, &cfg),
                Arg::Key(k) => w.key(*k, 1, &cfg),
                Arg::Str(s) => w.str(s),
            }
        }
        grammar.push(cst.intern(&w.into_bytes(), SigStats { count: 1, dur_sum: 1 }));
    }
    GlobalTrace {
        nranks: 1,
        encoder_cfg: cfg,
        cst,
        grammar: grammar.to_flat(),
        rank_lengths: vec![records.len() as u64],
        unique_grammars: 1,
        duration_grammars: vec![],
        interval_grammars: vec![],
        duration_rank_map: vec![],
        interval_rank_map: vec![],
        completeness: TraceCompleteness::complete(),
        nondet: None,
    }
}

proptest! {
    // 256 cases (the default), each a rank of up to 24 calls.
    #[test]
    fn hostile_calls_are_read_without_panicking_and_the_same_twice(
        script in proptest::collection::vec(
            (0usize..1000, proptest::collection::vec((0u8..6, 0usize..16, -3i64..9), 0..3)),
            1..24,
        ),
    ) {
        let records: Vec<CallRec> = script
            .into_iter()
            .map(|(pick, edits)| {
                let mut rec = templates()[pick % templates().len()].clone();
                edits.into_iter().for_each(|edit| mutate(&mut rec, edit));
                rec
            })
            .collect();
        let trace = container_of(&records);
        let derived = NondetLog::derive(&trace);
        prop_assert!(derived.is_ok(), "every signature here decodes");
        prop_assert_eq!(derived, NondetLog::derive(&trace));
        let index = TraceIndex::build(&trace);
        let engine = QueryEngine::new(&trace, &index);
        prop_assert_eq!(engine.comm_matrix(), engine.comm_matrix());
    }
}
