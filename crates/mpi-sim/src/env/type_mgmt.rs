//! Derived datatype construction calls.

use crate::datatype::DatatypeHandle;
use crate::hooks::Arg;
use crate::FuncId;

use super::Env;

impl Env {
    /// `MPI_Type_contiguous`.
    pub fn type_contiguous(&mut self, count: u64, base: DatatypeHandle) -> DatatypeHandle {
        self.call(FuncId::TypeContiguous, |env| {
            let new = env.types.contiguous(count, base);
            (new, vec![Arg::Int(count as i64), Arg::Datatype(base.0), Arg::Datatype(new.0)])
        })
    }

    /// `MPI_Type_vector`.
    pub fn type_vector(
        &mut self,
        count: u64,
        blocklen: u64,
        stride: i64,
        base: DatatypeHandle,
    ) -> DatatypeHandle {
        self.call(FuncId::TypeVector, |env| {
            let new = env.types.vector(count, blocklen, stride, base);
            let args = vec![
                Arg::Int(count as i64),
                Arg::Int(blocklen as i64),
                Arg::Int(stride),
                Arg::Datatype(base.0),
                Arg::Datatype(new.0),
            ];
            (new, args)
        })
    }

    /// `MPI_Type_indexed`.
    pub fn type_indexed(
        &mut self,
        blocklens: &[u64],
        displs: &[i64],
        base: DatatypeHandle,
    ) -> DatatypeHandle {
        self.call(FuncId::TypeIndexed, |env| {
            let new = env.types.indexed(blocklens, displs, base);
            let args = vec![
                Arg::Int(blocklens.len() as i64),
                Arg::IntArr(blocklens.iter().map(|&b| b as i64).collect()),
                Arg::IntArr(displs.to_vec()),
                Arg::Datatype(base.0),
                Arg::Datatype(new.0),
            ];
            (new, args)
        })
    }

    /// `MPI_Type_create_struct`.
    pub fn type_create_struct(
        &mut self,
        blocklens: &[u64],
        displs: &[i64],
        types: &[DatatypeHandle],
    ) -> DatatypeHandle {
        self.call(FuncId::TypeCreateStruct, |env| {
            let new = env.types.structured(blocklens, displs, types);
            let args = vec![
                Arg::Int(blocklens.len() as i64),
                Arg::IntArr(blocklens.iter().map(|&b| b as i64).collect()),
                Arg::IntArr(displs.to_vec()),
                Arg::IntArr(types.iter().map(|t| t.0 as i64).collect()),
                Arg::Datatype(new.0),
            ];
            (new, args)
        })
    }

    /// `MPI_Type_commit`.
    pub fn type_commit(&mut self, dt: DatatypeHandle) {
        self.call(FuncId::TypeCommit, |env| {
            env.types.commit(dt);
            ((), vec![Arg::Datatype(dt.0)])
        })
    }

    /// `MPI_Type_free`.
    pub fn type_free(&mut self, dt: DatatypeHandle) {
        self.call(FuncId::TypeFree, |env| {
            env.types.free(dt);
            ((), vec![Arg::Datatype(dt.0)])
        })
    }

    /// Size in bytes of one element of a datatype (helper, untraced).
    pub fn type_size(&self, dt: DatatypeHandle) -> u64 {
        self.types.get(dt).size
    }
}
