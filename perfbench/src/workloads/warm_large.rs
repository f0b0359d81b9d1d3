//! `warm-large`: one 16,384-node tree is seeded into a warm session at
//! set-up. Before each call the client dirties 2 nodes; the service then
//! walks a seeded path of depth ≤ 8 and dirties 2 more. Each call ships
//! a few dozen bytes each way, so the warm layer's per-call work over the
//! whole graph is what the clock sees. Served by `ServerPool::serve`.
//!
//! Oracle: the client's node values must match a model of both sides'
//! writes — the touched nodes after every call, every node at the end.

use std::collections::HashMap;
use std::sync::Arc;

use nrmi_bench::workload::bench_classes;
use nrmi_core::{FnService, NrmiError, RemoteSession, ServeHandle, ServerNode, ServerPool};
use nrmi_heap::gc::mark_sweep;
use nrmi_heap::tree::{build_random_tree, collect_nodes, TreeClasses};
use nrmi_heap::{HeapAccess, HeapError, ObjId, Value};
use nrmi_transport::MachineSpec;

use super::{bind, mix, op_arg, stop, OpOutcome, Workload};
use crate::trace::{self, ClientWire, Layer, Tracer};

/// Nodes in the warm tree.
pub const TREE_NODES: usize = 16_384;
/// Longest path the service walks.
pub const MAX_DEPTH: u32 = 8;
/// Nodes each side dirties per call.
pub const DIRTY_PER_SIDE: usize = 2;
/// Seed of the tree's shape, the same in every run.
const TREE_SHAPE: u64 = 0x5eed;
const SERVICE: &str = "walker";

/// The two nodes the service writes for path word `bits`: it walks from
/// `root` down at most [`MAX_DEPTH`] links, bit `d` choosing the side at
/// depth `d`, and picks two nodes on that path by the word's upper bits.
/// The client runs the same walk on its own copy to model the writes.
///
/// # Errors
/// Heap access errors.
pub fn path_targets(
    heap: &mut dyn HeapAccess,
    root: ObjId,
    bits: u32,
) -> Result<[ObjId; DIRTY_PER_SIDE], HeapError> {
    let mut path = vec![root];
    let mut node = root;
    for depth in 0..MAX_DEPTH {
        let side = if bits >> depth & 1 == 0 {
            "left"
        } else {
            "right"
        };
        match heap.get_ref(node, side)? {
            Some(child) => {
                node = child;
                path.push(child);
            }
            None => break,
        }
    }
    let pick = |shift: u32| path[(bits >> shift) as usize % path.len()];
    Ok([pick(8), pick(20)])
}

/// The service body: `walk(root, bits, a, b, op)` sets the two path
/// targets' data to `a` and `b`, in that order.
fn walk(heap: &mut dyn HeapAccess, args: &[Value]) -> Result<Value, NrmiError> {
    let root = args
        .first()
        .and_then(Value::as_ref_id)
        .ok_or_else(|| NrmiError::app("expected the tree root"))?;
    let int = |i: usize| {
        args.get(i)
            .and_then(Value::as_int)
            .ok_or_else(|| NrmiError::app("expected int arguments"))
    };
    let targets = path_targets(heap, root, int(1)? as u32)?;
    for (target, value) in targets.into_iter().zip([int(2)?, int(3)?]) {
        heap.set_field(target, "data", Value::Int(value))?;
    }
    Ok(Value::Null)
}

/// The running workload.
pub struct WarmLarge {
    seed: u64,
    session: RemoteSession<ClientWire>,
    server: ServeHandle,
    root: ObjId,
    nodes: Vec<ObjId>,
    /// Expected `data` of every node, by position in `nodes`.
    model: Vec<i32>,
    index: HashMap<ObjId, usize>,
    args: Vec<Value>,
    touched: Vec<usize>,
    returned: Option<Value>,
    tracer: Arc<Tracer>,
}

impl WarmLarge {
    fn data(&mut self, node: ObjId) -> Option<i32> {
        self.session
            .heap()
            .get_field(node, "data")
            .ok()
            .and_then(|v| v.as_int())
    }

    /// The oracle over positions `which`: the first position whose
    /// client value differs from the model.
    fn first_mismatch(&mut self, which: &[usize]) -> Option<usize> {
        which
            .iter()
            .copied()
            .find(|&i| self.data(self.nodes[i]) != Some(self.model[i]))
    }
}

impl Workload for WarmLarge {
    const CALLS_PER_OP: u64 = 1;
    const WARM: bool = true;

    fn setup(seed: u64, tracer: &Arc<Tracer>) -> Result<Self, NrmiError> {
        let classes = bench_classes();
        let mut server = ServerNode::new(classes.registry.clone(), MachineSpec::fast());
        let server_tracer = Arc::clone(tracer);
        server.bind(
            SERVICE,
            Box::new(FnService::new(
                move |_method: &str, args: &[Value], heap: &mut dyn HeapAccess| {
                    server_tracer.execute(op_arg(args, 4), || walk(heap, args))
                },
            )),
        );
        let (listener, addr) = bind()?;
        let handle = ServerPool::new().serve(server, listener);
        let mut session =
            RemoteSession::over(classes.registry.clone(), trace::connect(addr, tracer)?);
        let tree = TreeClasses { tree: classes.tree };
        let heap = session.heap();
        // The per-call cost scales with the graph and, by a few percent,
        // with its shape; one fixed shape keeps seeds comparable. The
        // seed draws the values, the writes and the walks.
        let root = build_random_tree(heap, &tree, TREE_NODES, TREE_SHAPE)?;
        let nodes = collect_nodes(heap, root)?;
        let mut model = Vec::with_capacity(nodes.len());
        for (i, &node) in nodes.iter().enumerate() {
            let value = (mix(seed, u64::MAX - i as u64) % 2000) as i32 - 1000;
            heap.set_field(node, "data", Value::Int(value))?;
            model.push(value);
        }
        let index = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
        Ok(WarmLarge {
            seed,
            session,
            server: handle,
            root,
            nodes,
            model,
            index,
            args: Vec::new(),
            touched: Vec::new(),
            returned: None,
            tracer: Arc::clone(tracer),
        })
    }

    fn prepare(&mut self, op: u64) {
        self.touched.clear();
        let word = |k: u64| mix(self.seed, op * 8 + k);
        let value = |k: u64| (word(k) % 2000) as i32 - 1000;
        // The client's own writes, shipped in the request delta.
        for k in 0..DIRTY_PER_SIDE as u64 {
            let i = (word(k) >> 32) as usize % self.nodes.len();
            let v = value(k + 4);
            self.session
                .heap()
                .set_field(self.nodes[i], "data", Value::Int(v))
                .expect("client write");
            self.model[i] = v;
            self.touched.push(i);
        }
        // The service's writes, modelled on the client's copy of the
        // (structurally unchanging) tree.
        let bits = word(2) as u32;
        let values = [value(6), value(7)];
        let targets =
            path_targets(self.session.heap(), self.root, bits).expect("model the service walk");
        for (target, v) in targets.into_iter().zip(values) {
            let i = self.index[&target];
            self.model[i] = v;
            self.touched.push(i);
        }
        self.args = vec![
            Value::Ref(self.root),
            Value::Int(bits as i32),
            Value::Int(values[0]),
            Value::Int(values[1]),
            Value::Int(op as i32),
        ];
        self.returned = None;
    }

    fn execute(&mut self, _op: u64) -> Result<OpOutcome, NrmiError> {
        let (returned, stats) = {
            let _span = self.tracer.span(Layer::Warm);
            self.session
                .call_warm_with_stats(SERVICE, "walk", &self.args)?
        };
        self.returned = Some(returned);
        Ok(OpOutcome::from_stats(&stats))
    }

    fn verify(&mut self, op: u64) -> Result<(), String> {
        if self.returned != Some(Value::Null) {
            return Err(format!(
                "op {op}: walk returned {:?}, not null",
                self.returned
            ));
        }
        let touched = std::mem::take(&mut self.touched);
        let mismatch = self.first_mismatch(&touched);
        self.touched = touched;
        match mismatch {
            None => Ok(()),
            Some(i) => Err(format!(
                "op {op}: node {i} holds {:?}, the model says {}",
                self.data(self.nodes[i]),
                self.model[i]
            )),
        }
    }

    fn client_live_objects(&mut self) -> usize {
        let root = self.root;
        mark_sweep(self.session.heap(), &[root]).expect("collect the client heap");
        self.session.heap().live_count()
    }

    fn finish(mut self) -> Result<(), String> {
        let all: Vec<usize> = (0..self.nodes.len()).collect();
        let verdict = match self.first_mismatch(&all) {
            None => Ok(()),
            Some(i) => Err(format!(
                "final sweep: node {i} holds {:?}, the model says {}",
                self.data(self.nodes[i]),
                self.model[i]
            )),
        };
        let _ = self.session.close();
        stop(self.server).and(verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_models_both_sides_and_catches_a_lost_server_write() {
        let tracer = Tracer::new();
        let mut w = WarmLarge::setup(3, &tracer).unwrap();
        for op in 0..4 {
            w.prepare(op);
            w.execute(op).unwrap();
            w.verify(op).unwrap();
        }
        // Undo one of the server's writes on the client, as a reply
        // delta that dropped it would.
        w.prepare(4);
        w.execute(4).unwrap();
        let server_write = w.touched[DIRTY_PER_SIDE];
        let node = w.nodes[server_write];
        let stale = w.model[server_write] + 1;
        w.session
            .heap()
            .set_field(node, "data", Value::Int(stale))
            .unwrap();
        let err = w.verify(4).unwrap_err();
        assert!(err.contains("the model says"), "{err}");
        assert!(w.finish().unwrap_err().contains("final sweep"));
    }
}
