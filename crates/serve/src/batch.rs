//! The micro-batching queue: concurrent predict requests are collected
//! up to a batch size `B` or a deadline `T`, whichever comes first, and
//! executed as ONE batched forward pass.
//!
//! Batching is free of accuracy consequences here: the batched forward
//! is bitwise identical to running each sample alone (asserted by
//! `tests/integration_batch.rs`), so the only observable effect is
//! throughput — one tape walk amortizes scheduling and parameter
//! traffic across all samples in flight.

use crate::metrics::ServerMetrics;
use ir_fusion::{IrFusionPipeline, PreparedStack, TrainedModel};
use irf_pg::GridMap;
use irf_trace::Timer;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An atomically swappable trained model, shared between the batcher
/// and the `POST /reload` endpoint.
///
/// The batcher reads the slot once per batch ([`ModelSlot::get`] clones
/// the inner `Arc` under a short lock), so a [`ModelSlot::swap`] never
/// disturbs a forward pass already in flight: batches collected before
/// the swap finish on the model they started with, batches collected
/// after it run on the new one. No request is dropped either way.
#[derive(Debug)]
pub struct ModelSlot {
    model: Mutex<Arc<TrainedModel>>,
}

impl ModelSlot {
    /// Wraps an initial model.
    #[must_use]
    pub fn new(model: TrainedModel) -> Self {
        ModelSlot {
            model: Mutex::new(Arc::new(model)),
        }
    }

    /// The current model (cheap `Arc` clone).
    #[must_use]
    pub fn get(&self) -> Arc<TrainedModel> {
        Arc::clone(&self.model.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Replaces the model. Takes effect from the next collected batch.
    pub fn swap(&self, model: TrainedModel) {
        self.swap_arc(Arc::new(model));
    }

    /// [`ModelSlot::swap`] for an already-shared model (the registry
    /// moves prepared precision variants between slots this way).
    pub fn swap_arc(&self, model: Arc<TrainedModel>) {
        *self.model.lock().unwrap_or_else(|e| e.into_inner()) = model;
    }
}

/// Tunables of the micro-batcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Maximum requests fused into one forward pass.
    pub max_batch: usize,
    /// How long the collector waits for more requests after the first
    /// one arrives.
    pub deadline: Duration,
    /// Bound on queued-but-unbatched requests; submissions beyond it
    /// are rejected (the server answers 429).
    pub queue_capacity: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 4,
            deadline: Duration::from_millis(5),
            queue_capacity: 64,
        }
    }
}

/// One queued inference request: the prepared stack to run, the model
/// slot to run it through, and the channel that receives the predicted
/// map.
pub struct PredictJob {
    /// Prepared features + rough map (label-free).
    pub stack: Arc<PreparedStack>,
    /// The (model, precision) variant this job runs on, resolved by
    /// the handler. The batcher groups collected jobs by slot, so
    /// every executed forward batch is homogeneous in both model and
    /// precision mode.
    pub slot: Arc<ModelSlot>,
    /// Id of the originating HTTP request (`0` when none). Carried
    /// explicitly: the batcher thread never inherits the handler's
    /// thread-local `irf_trace::request` scope.
    pub request: u64,
    /// When the job was queued; the batcher derives queue wait from it.
    pub submitted: Instant,
    /// Where the prediction (plus its accounting) is delivered.
    pub reply: mpsc::Sender<PredictReply>,
}

/// What the batcher delivers for one job: the prediction and the
/// accounting the access log and flight recorder attribute to the
/// originating request.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictReply {
    /// The predicted IR-drop map.
    pub map: GridMap,
    /// How long the job sat queued before its batch's forward started.
    pub queue_seconds: f64,
    /// Number of jobs fused into the same forward pass.
    pub batch_size: usize,
}

/// Why a submission was not queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is full — shed load (HTTP 429).
    QueueFull,
    /// The batcher has shut down (HTTP 503).
    Closed,
}

/// Handle to the batcher thread.
pub struct Batcher {
    tx: mpsc::SyncSender<PredictJob>,
    handle: JoinHandle<()>,
}

impl Batcher {
    /// Spawns the batcher thread. Each job carries the [`ModelSlot`]
    /// it resolved against (a named model at one precision); the
    /// batcher reads each distinct slot once per batch and a
    /// `POST /v1/models/{name}/reload` swaps slots in place.
    #[must_use]
    pub fn start(
        pipeline: IrFusionPipeline,
        config: BatchConfig,
        metrics: Arc<ServerMetrics>,
    ) -> Batcher {
        let (tx, rx) = mpsc::sync_channel::<PredictJob>(config.queue_capacity.max(1));
        let handle = std::thread::Builder::new()
            .name("irf-batcher".into())
            .spawn(move || run_batcher(&rx, &pipeline, config, &metrics))
            .expect("spawn batcher thread");
        Batcher { tx, handle }
    }

    /// A cloneable submission endpoint.
    #[must_use]
    pub fn sender(&self) -> mpsc::SyncSender<PredictJob> {
        self.tx.clone()
    }

    /// Drops the submission endpoint and joins the thread after it
    /// drains every queued job (provided all cloned senders are gone).
    pub fn shutdown(self) {
        let Batcher { tx, handle } = self;
        drop(tx);
        let _ = handle.join();
    }
}

/// Non-blocking submission helper shared by the server's handlers.
///
/// # Errors
///
/// [`SubmitError::QueueFull`] when the bounded queue is at capacity,
/// [`SubmitError::Closed`] when the batcher is gone.
pub fn try_submit(tx: &mpsc::SyncSender<PredictJob>, job: PredictJob) -> Result<(), SubmitError> {
    match tx.try_send(job) {
        Ok(()) => Ok(()),
        Err(mpsc::TrySendError::Full(_)) => Err(SubmitError::QueueFull),
        Err(mpsc::TrySendError::Disconnected(_)) => Err(SubmitError::Closed),
    }
}

fn run_batcher(
    rx: &mpsc::Receiver<PredictJob>,
    pipeline: &IrFusionPipeline,
    config: BatchConfig,
    metrics: &ServerMetrics,
) {
    let max_batch = config.max_batch.max(1);
    loop {
        // Block for the first job; every sender gone means shutdown
        // (after the channel's remaining jobs have been drained).
        let first = match rx.recv() {
            Ok(job) => job,
            Err(mpsc::RecvError) => return,
        };
        let mut jobs = vec![first];
        let deadline = Instant::now() + config.deadline;
        while jobs.len() < max_batch {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(job) => jobs.push(job),
                Err(mpsc::RecvTimeoutError::Timeout | mpsc::RecvTimeoutError::Disconnected) => {
                    break
                }
            }
        }
        // Partition the collected jobs into homogeneous groups — one
        // per distinct (model, precision) slot, in arrival order — so
        // a forward batch never mixes models or precision modes.
        let mut groups: Vec<(Arc<ModelSlot>, Vec<PredictJob>)> = Vec::new();
        for job in jobs {
            match groups
                .iter_mut()
                .find(|(slot, _)| Arc::ptr_eq(slot, &job.slot))
            {
                Some((_, group)) => group.push(job),
                None => {
                    let slot = Arc::clone(&job.slot);
                    groups.push((slot, vec![job]));
                }
            }
        }
        for (slot, jobs) in groups {
            let stacks: Vec<&PreparedStack> = jobs.iter().map(|j| j.stack.as_ref()).collect();
            // Resolve the model once per group: a concurrent reload
            // takes effect on the NEXT batch, never mid-forward.
            let model = slot.get();
            let batch_started = Instant::now();
            let (maps, seconds) = Timer::time(|| pipeline.predict_batch(&model, &stacks));
            metrics.observe_batch(jobs.len());
            metrics.observe_stage("forward", seconds);
            let batch_size = jobs.len();
            if irf_obs::log::enabled(irf_obs::log::Level::Debug) {
                // The per-batch detail record names every fused request
                // so a slow forward can be pinned to its co-batched
                // peers.
                let ids: Vec<String> = jobs.iter().map(|j| format!("{:016x}", j.request)).collect();
                let ids = ids.join(",");
                irf_obs::debug(
                    "forward_batch",
                    &[
                        ("batch_size", batch_size.into()),
                        ("forward_seconds", seconds.into()),
                        ("precision", model.precision.name().into()),
                        ("requests", ids.as_str().into()),
                    ],
                );
            }
            for (job, map) in jobs.into_iter().zip(maps) {
                let queue_seconds = batch_started
                    .saturating_duration_since(job.submitted)
                    .as_secs_f64();
                // A handler that gave up (client disconnect) just
                // drops its receiver; that is not the batcher's
                // problem.
                let _ = job.reply.send(PredictReply {
                    map,
                    queue_seconds,
                    batch_size,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ir_fusion::FusionConfig;
    use irf_data::Dataset;
    use irf_models::ModelKind;

    #[test]
    fn batcher_serves_jobs_and_drains_on_shutdown() {
        let config = FusionConfig::tiny();
        let dataset = Dataset::generate(2, 2, 1, 7);
        let trained = ir_fusion::train(ModelKind::IrEdge, &dataset, &config);
        let pipeline = IrFusionPipeline::new(config);
        let stack = Arc::new(
            pipeline
                .prepare_stack(&dataset.designs[0].grid)
                .expect("grid has pads"),
        );
        let expected = pipeline.predict(&trained, &stack);

        let metrics = Arc::new(ServerMetrics::new(4));
        let slot = Arc::new(ModelSlot::new(trained));
        let batcher = Batcher::start(
            pipeline,
            BatchConfig {
                max_batch: 4,
                deadline: Duration::from_millis(1),
                queue_capacity: 8,
            },
            Arc::clone(&metrics),
        );
        let tx = batcher.sender();
        let mut replies = Vec::new();
        for seq in 0..3u64 {
            let (reply_tx, reply_rx) = mpsc::channel();
            try_submit(
                &tx,
                PredictJob {
                    stack: Arc::clone(&stack),
                    slot: Arc::clone(&slot),
                    request: seq + 1,
                    submitted: Instant::now(),
                    reply: reply_tx,
                },
            )
            .expect("queue has room");
            replies.push(reply_rx);
        }
        for rx in replies {
            let reply = rx.recv().expect("batcher replies");
            assert_eq!(
                reply.map, expected,
                "batched result must equal solo predict"
            );
            assert!(reply.batch_size >= 1 && reply.batch_size <= 3);
            assert!(reply.queue_seconds >= 0.0);
        }
        drop(tx);
        batcher.shutdown();
    }

    #[test]
    fn model_swap_takes_effect_on_the_next_batch() {
        let config = FusionConfig::tiny();
        let dataset = Dataset::generate(2, 2, 1, 7);
        let first = ir_fusion::train(ModelKind::IrEdge, &dataset, &config);
        let mut longer = config;
        longer.train.epochs += 1;
        let second = ir_fusion::train(ModelKind::IrEdge, &dataset, &longer);
        let pipeline = IrFusionPipeline::new(config);
        let stack = Arc::new(
            pipeline
                .prepare_stack(&dataset.designs[0].grid)
                .expect("grid has pads"),
        );
        let from_first = pipeline.predict(&first, &stack);
        let from_second = pipeline.predict(&second, &stack);
        assert_ne!(from_first, from_second, "models must actually differ");

        let slot = Arc::new(ModelSlot::new(first));
        let metrics = Arc::new(ServerMetrics::new(4));
        let batcher = Batcher::start(pipeline, BatchConfig::default(), metrics);
        let tx = batcher.sender();

        let predict_once = |tx: &mpsc::SyncSender<PredictJob>| {
            let (reply_tx, reply_rx) = mpsc::channel();
            try_submit(
                tx,
                PredictJob {
                    stack: Arc::clone(&stack),
                    slot: Arc::clone(&slot),
                    request: 0,
                    submitted: Instant::now(),
                    reply: reply_tx,
                },
            )
            .expect("queue has room");
            reply_rx.recv().expect("batcher replies").map
        };

        assert_eq!(predict_once(&tx), from_first);
        slot.swap(second);
        assert_eq!(predict_once(&tx), from_second, "swap must be visible");
        drop(tx);
        batcher.shutdown();
    }

    #[test]
    fn mixed_precision_jobs_batch_homogeneously() {
        let config = FusionConfig::tiny();
        let dataset = Dataset::generate(2, 2, 1, 7);
        let trained = ir_fusion::train(ModelKind::IrEdge, &dataset, &config);
        let int8 = trained.precision_variant(ir_fusion::PrecisionMode::Int8);
        let pipeline = IrFusionPipeline::new(config);
        let stack = Arc::new(
            pipeline
                .prepare_stack(&dataset.designs[0].grid)
                .expect("grid has pads"),
        );
        let expected_f32 = pipeline.predict(&trained, &stack);
        let expected_int8 = pipeline.predict(&int8, &stack);
        assert_ne!(expected_f32, expected_int8, "precisions must differ");

        let slots = [
            Arc::new(ModelSlot::new(trained)),
            Arc::new(ModelSlot::new(int8)),
        ];
        let metrics = Arc::new(ServerMetrics::new(8));
        let batcher = Batcher::start(
            pipeline,
            BatchConfig {
                max_batch: 8,
                deadline: Duration::from_millis(50),
                queue_capacity: 8,
            },
            metrics,
        );
        let tx = batcher.sender();
        // Interleave the two precisions so one collected batch holds
        // both; the batcher must split it into homogeneous groups.
        let mut replies = Vec::new();
        for i in 0..4usize {
            let (reply_tx, reply_rx) = mpsc::channel();
            try_submit(
                &tx,
                PredictJob {
                    stack: Arc::clone(&stack),
                    slot: Arc::clone(&slots[i % 2]),
                    request: i as u64,
                    submitted: Instant::now(),
                    reply: reply_tx,
                },
            )
            .expect("queue has room");
            replies.push(reply_rx);
        }
        for (i, rx) in replies.into_iter().enumerate() {
            let reply = rx.recv().expect("batcher replies");
            let expected = if i % 2 == 0 {
                &expected_f32
            } else {
                &expected_int8
            };
            assert_eq!(
                &reply.map, expected,
                "job {i} must ride its own precision group"
            );
            assert!(
                reply.batch_size <= 2,
                "groups must not mix slots (got batch of {})",
                reply.batch_size
            );
        }
        drop(tx);
        batcher.shutdown();
    }
}
