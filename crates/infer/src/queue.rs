//! Micro-batching serving front-end.
//!
//! Single-sample requests are coalesced into one batched forward: a
//! request enters via [`InferQueue::submit`], sits in the pending queue
//! until either `max_batch` rows have accumulated (flushed immediately)
//! or `max_wait` has elapsed since the oldest pending request (flushed
//! by the next [`InferQueue::poll`]), and its result is collected with
//! [`InferQueue::take`].
//!
//! Tensors are single-threaded (`Rc` copy-on-write), so the queue is an
//! explicitly driven event loop rather than a background thread: the
//! serving loop calls `poll` between request arrivals. Batching is
//! exact, not approximate — a batched forward is bitwise identical per
//! row to running each request alone, so coalescing never changes an
//! answer.

use stwa_core::InferSession;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use stwa_tensor::{manip, Result, Tensor, TensorError};

/// Micro-batching knobs.
#[derive(Debug, Clone, Copy)]
pub struct QueueConfig {
    /// Flush as soon as this many rows are pending.
    pub max_batch: usize,
    /// Flush (on `poll`) once the oldest pending request is this old.
    pub max_wait: Duration,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            max_batch: 32,
            max_wait: Duration::from_millis(2),
        }
    }
}

/// Ticket handed out by [`InferQueue::submit`].
pub type RequestId = u64;

/// The coalescing queue in front of an [`InferSession`].
pub struct InferQueue {
    session: InferSession,
    config: QueueConfig,
    pending: Vec<(RequestId, Tensor)>,
    oldest: Option<Instant>,
    ready: HashMap<RequestId, Tensor>,
    next_id: RequestId,
    closed: bool,
}

impl InferQueue {
    pub fn new(session: InferSession, config: QueueConfig) -> Result<InferQueue> {
        if config.max_batch == 0 {
            return Err(TensorError::Invalid(
                "InferQueue: max_batch must be at least 1".into(),
            ));
        }
        Ok(InferQueue {
            session,
            config,
            pending: Vec::new(),
            oldest: None,
            ready: HashMap::new(),
            next_id: 0,
            closed: false,
        })
    }

    pub fn session(&self) -> &InferSession {
        &self.session
    }

    /// Panel precision of the session being served. Micro-batching is
    /// precision-agnostic — coalescing and row slicing never touch the
    /// packed panels — so a queue over a quantized session behaves
    /// identically, just on smaller weights.
    pub fn precision(&self) -> stwa_tensor::quant::Precision {
        self.session.precision()
    }

    /// Rows currently waiting for a flush.
    pub fn pending_rows(&self) -> usize {
        self.pending.len()
    }

    /// Enqueue one request: `x` is a single sample `[N, H, F]` or
    /// `[1, N, H, F]`. Returns a ticket for [`InferQueue::take`]. When
    /// the pending queue reaches `max_batch` the batch runs before this
    /// call returns.
    pub fn submit(&mut self, x: Tensor) -> Result<RequestId> {
        // A closed queue refuses instead of accepting work that no
        // poll/flush will ever run — the caller would wait forever on a
        // ticket that can't complete.
        if self.closed {
            stwa_observe::counter!("infer.closed_rejections").incr();
            return Err(TensorError::Invalid(
                "InferQueue::submit: queue is closed (drained by close()); \
                 open a new queue over a fresh session to keep serving"
                    .into(),
            ));
        }
        let row = match x.rank() {
            3 => x.unsqueeze(0)?,
            4 if x.shape()[0] == 1 => x,
            _ => {
                return Err(TensorError::Invalid(format!(
                    "InferQueue::submit: expected [N, H, F] or [1, N, H, F], got {:?}",
                    x.shape()
                )))
            }
        };
        // A zero-element row would poison every batch it joins: the
        // batched forward fails, `run_batch` re-queues the whole batch,
        // and the queue loops on the same error forever. Refuse it at
        // the door instead.
        if row.is_empty() {
            return Err(TensorError::Invalid(format!(
                "InferQueue::submit: zero-length request {:?} (a zero-sized \
                 dimension) can never be served",
                row.shape()
            )));
        }
        stwa_observe::counter!("infer.requests").incr();
        let id = self.next_id;
        self.next_id += 1;
        if self.pending.is_empty() {
            self.oldest = Some(Instant::now());
        }
        self.pending.push((id, row));
        if self.pending.len() >= self.config.max_batch {
            stwa_observe::counter!("infer.flush_full").incr();
            self.run_batch()?;
        }
        Ok(id)
    }

    /// Drive the queue: flush if the oldest pending request has waited
    /// at least `max_wait`. Returns the number of rows flushed (0 when
    /// nothing was due).
    pub fn poll(&mut self) -> Result<usize> {
        match self.oldest {
            Some(t0) if t0.elapsed() >= self.config.max_wait => {
                stwa_observe::counter!("infer.flush_wait").incr();
                self.run_batch()
            }
            _ => Ok(0),
        }
    }

    /// Flush unconditionally (e.g. at shutdown). Returns rows flushed.
    pub fn flush(&mut self) -> Result<usize> {
        if self.pending.is_empty() {
            return Ok(0);
        }
        stwa_observe::counter!("infer.flush_forced").incr();
        self.run_batch()
    }

    /// Graceful shutdown: flush every pending request so its result
    /// becomes collectable via [`InferQueue::take`], then reject all
    /// later submits with a typed error. Returns the rows flushed.
    ///
    /// The closed flag is set *before* the flush so a failing flush
    /// (e.g. a stale session) still leaves the queue closed — the
    /// pending rows stay queued for a caller that can recover, but no
    /// new work can pile onto a queue that is going away.
    pub fn close(&mut self) -> Result<usize> {
        if self.closed {
            return Ok(0);
        }
        self.closed = true;
        stwa_observe::counter!("infer.closes").incr();
        if self.pending.is_empty() {
            return Ok(0);
        }
        stwa_observe::counter!("infer.flush_close").incr();
        self.run_batch()
    }

    /// Whether [`InferQueue::close`] has run.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Collect a finished request's predictions `[1, N, U, F]`.
    /// `None` while the request is still pending — `poll` or `flush`
    /// first.
    pub fn take(&mut self, id: RequestId) -> Option<Tensor> {
        self.ready.remove(&id)
    }

    fn run_batch(&mut self) -> Result<usize> {
        if self.pending.is_empty() {
            return Ok(0);
        }
        let batch = std::mem::take(&mut self.pending);
        self.oldest = None;
        let rows: Vec<&Tensor> = batch.iter().map(|(_, t)| t).collect();
        let x = manip::concat(&rows, 0)?;
        let preds = match self.session.run(&x) {
            Ok(p) => p,
            Err(e) => {
                // Put the batch back so a re-freeze + retry can serve it.
                self.pending = batch;
                self.oldest = Some(Instant::now());
                return Err(e);
            }
        };
        stwa_observe::counter!("infer.batches").incr();
        stwa_observe::counter!("infer.batched_rows").add(batch.len() as u64);
        for (i, (id, _)) in batch.iter().enumerate() {
            self.ready.insert(*id, preds.narrow(0, i, 1)?);
        }
        Ok(batch.len())
    }
}
