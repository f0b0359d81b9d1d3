//! `cold-tree`: each call passes a fresh seeded 1024-node Scenario III
//! tree, with its aliases, to a service running the benchmark suite's
//! Scenario III `mutate_tree` under default copy-restore (full reply,
//! then restore steps 4–6), against `ServerPool::serve`.
//!
//! Oracle: the paper's local-call invariant. After the call the client's
//! tree and aliases must be isomorphic, values included, to a local twin
//! on which the same seeded `mutate_tree` ran in process.

use std::sync::Arc;

use nrmi_bench::workload::{
    bench_classes, build_workload, mutate_tree, BenchClasses, Scenario, WorkloadInstance,
};
use nrmi_core::{
    client_apply_reply, client_marshal_call, CallOptions, ClientNode, FnService, NrmiError,
    ServeHandle, ServerNode, ServerPool,
};
use nrmi_heap::gc::mark_sweep;
use nrmi_heap::graph::isomorphic_multi;
use nrmi_heap::{Heap, HeapAccess, ObjId, Value};
use nrmi_transport::{Frame, MachineSpec, Transport};

use super::{bind, mix, op_arg, stop, OpOutcome, Workload};
use crate::trace::{self, ClientWire, Layer, Tracer};

/// Nodes per argument tree.
pub const TREE_NODES: usize = 1024;
const SERVICE: &str = "tree";

struct Prepared {
    client: WorkloadInstance,
    twin: WorkloadInstance,
    returned: Option<Value>,
}

/// The running workload.
pub struct ColdTree {
    seed: u64,
    classes: BenchClasses,
    client: ClientNode,
    wire: ClientWire,
    server: ServeHandle,
    twin: Heap,
    current: Option<Prepared>,
    tracer: Arc<Tracer>,
}

impl ColdTree {
    /// Roots the oracle compares: the tree, then every alias.
    fn roots(instance: &WorkloadInstance) -> Vec<ObjId> {
        std::iter::once(instance.root)
            .chain(instance.aliases.iter().copied())
            .collect()
    }

    /// The oracle: client graph against its in-process twin.
    fn check(client: &Heap, client_roots: &[ObjId], twin: &Heap, twin_roots: &[ObjId]) -> bool {
        isomorphic_multi(client, client_roots, twin, twin_roots).unwrap_or(false)
    }
}

impl Workload for ColdTree {
    const CALLS_PER_OP: u64 = 1;
    const WARM: bool = false;

    fn setup(seed: u64, tracer: &Arc<Tracer>) -> Result<Self, NrmiError> {
        let classes = bench_classes();
        let mut server = ServerNode::new(classes.registry.clone(), MachineSpec::fast());
        let server_tracer = Arc::clone(tracer);
        server.bind(
            SERVICE,
            Box::new(FnService::new(
                move |_method: &str, args: &[Value], heap: &mut dyn HeapAccess| {
                    let op = op_arg(args, 1);
                    server_tracer.execute(op, || {
                        let root = args
                            .first()
                            .and_then(Value::as_ref_id)
                            .ok_or_else(|| NrmiError::app("expected a tree argument"))?;
                        mutate_tree(heap, root, Scenario::III, mix(seed, op))?;
                        Ok(Value::Null)
                    })
                },
            )),
        );
        let (listener, addr) = bind()?;
        let handle = ServerPool::new().serve(server, listener);
        let wire = trace::connect(addr, tracer)?;
        Ok(ColdTree {
            seed,
            client: ClientNode::new(classes.registry.clone(), MachineSpec::fast()),
            twin: Heap::new(classes.registry.clone()),
            classes,
            wire,
            server: handle,
            current: None,
            tracer: Arc::clone(tracer),
        })
    }

    fn prepare(&mut self, op: u64) {
        // Each call gets its own tree and its own mutation, both drawn
        // from the run's seed, so a run averages over many of each.
        let tree_seed = mix(self.seed, op);
        let build = |heap: &mut Heap| {
            build_workload(heap, &self.classes, Scenario::III, TREE_NODES, tree_seed)
                .expect("build the argument tree")
        };
        let client = build(&mut self.client.state.heap);
        let twin = build(&mut self.twin);
        // The local call the remote one must be indistinguishable from.
        mutate_tree(&mut self.twin, twin.root, Scenario::III, tree_seed).expect("local twin call");
        self.current = Some(Prepared {
            client,
            twin,
            returned: None,
        });
    }

    fn execute(&mut self, op: u64) -> Result<OpOutcome, NrmiError> {
        let prepared = self.current.as_mut().expect("prepare runs before execute");
        let args = [Value::Ref(prepared.client.root), Value::Int(op as i32)];
        let (request, pending) = {
            let _span = self.tracer.span(Layer::Marshal);
            client_marshal_call(
                &mut self.client,
                SERVICE,
                "mutate",
                &args,
                CallOptions::auto(),
            )?
        };
        self.wire.send(&request)?;
        drop(request);
        let payload = match self.wire.recv()? {
            Frame::CallReply { payload } => payload,
            Frame::CallError { message } => return Err(NrmiError::Remote(message)),
            other => {
                return Err(NrmiError::Protocol(format!(
                    "unexpected frame while awaiting reply: {other:?}"
                )))
            }
        };
        let (returned, stats) = {
            let _span = self.tracer.span(Layer::Apply);
            client_apply_reply(&mut self.client, pending, &payload)?
        };
        prepared.returned = Some(returned);
        Ok(OpOutcome::from_stats(&stats))
    }

    fn verify(&mut self, op: u64) -> Result<(), String> {
        let prepared = self.current.take().expect("prepare runs before verify");
        let verdict = if prepared.returned.is_none() {
            Err(format!("op {op}: the call failed"))
        } else if prepared.returned != Some(Value::Null) {
            Err(format!(
                "op {op}: mutate returned {:?}, not null",
                prepared.returned
            ))
        } else if !Self::check(
            &self.client.state.heap,
            &Self::roots(&prepared.client),
            &self.twin,
            &Self::roots(&prepared.twin),
        ) {
            Err(format!(
                "op {op}: client tree differs from the local twin after the call"
            ))
        } else {
            Ok(())
        };
        // The client drops the tree and its aliases; collect both heaps.
        mark_sweep(&mut self.client.state.heap, &[]).expect("collect the client heap");
        mark_sweep(&mut self.twin, &[]).expect("collect the twin heap");
        verdict
    }

    fn client_live_objects(&mut self) -> usize {
        self.client.state.heap.live_count()
    }

    fn finish(mut self) -> Result<(), String> {
        let _ = self.wire.send(&Frame::Shutdown);
        stop(self.server)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_passes_a_real_call_and_catches_a_lost_write() {
        let tracer = Tracer::new();
        let mut w = ColdTree::setup(7, &tracer).unwrap();
        w.prepare(1);
        w.execute(1).unwrap();
        w.verify(1).unwrap();

        // The same call, but one value the server wrote never reaches the
        // caller's tree — as if the reply had lost it.
        w.prepare(2);
        w.execute(2).unwrap();
        let root = w.current.as_ref().unwrap().client.root;
        let heap = &mut w.client.state.heap;
        let data = heap.get_field(root, "data").unwrap().as_int().unwrap();
        heap.set_field(root, "data", Value::Int(data + 1)).unwrap();
        let err = w.verify(2).unwrap_err();
        assert!(err.contains("differs from the local twin"), "{err}");
        assert_eq!(
            w.client_live_objects(),
            0,
            "verify collects the client heap"
        );
        w.finish().unwrap();
    }
}
