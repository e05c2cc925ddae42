package roundbench

import java.lang.management.ManagementFactory
import java.util.SplittableRandom
import scala.collection.mutable.ArrayBuffer
import scala.util.control.NonFatal
import org.apache.spark.sql.SparkSession
import repro.engine.{BingoEngine, GraphStore, WalkEngine}
import repro.eval.{Bench, Tables}
import repro.graph.{GraphGen, Update}
import repro.walk.Walks

/** One reported number. */
final case class Metric(name: String, value: Double, unit: String)

/** Wall and critical-path times of one round's two Spark jobs. */
final case class RoundTimes(
    round: Int,
    traced: Boolean,
    startNs: Long,
    updateWallNs: Long,
    updateCpNs: Long,
    walkWallNs: Long,
    walkCpNs: Long,
    steps: Long,
    conversions: Long,
    touches: Long,
) {
  def wallNs: Long = updateWallNs + walkWallNs
}

/** A traced interval; `parent` is the id of the enclosing span (-1 for the run). */
final case class Span(id: Int, parent: Int, name: String, round: Int, startNs: Long, endNs: Long)

/** A run's metrics and check results, with the per-round and per-task
  * records they were computed from (the last two only in a traced run).
  */
final case class RunResult(
    metrics: Seq[Metric],
    gate: Gate,
    notes: Seq[String],
    spans: Seq[Span],
    rounds: Seq[RoundTimes],
    engineTimes: Seq[TaskEngineTime],
    tasks: Seq[TaskRecord],
)

/** The closed-loop round stream of one workload (paper §6.1): each round
  * applies one batch through `Bench.applyRoundSpark`, then runs the walk
  * application through `Bench.runWalksSpark`; the next batch is drawn only
  * after both jobs end. Every layer is timed from outside, at the calls
  * into its public functions.
  *
  * A run generates its inputs from `seed`: the split of the workload's
  * fixed graph into initial snapshot and unused pool, the update stream
  * and the walkers' seeds. The graph itself is the program's fixed -lite
  * dataset, as the paper uses fixed datasets. The run builds the engine
  * `SetupRepeats` times (the median is `setup_s`), runs unreported
  * warm-up rounds (the first, whose first Spark job is cold, then at least
  * `WarmupRounds` in all and `WarmupSeconds` after the first), then
  * measures rounds for the given time. A traced
  * run alternates plain and traced rounds (the engine wrapped in a
  * [[TracingEngine]] under the same handle, plus a [[TaskListener]]), then
  * runs `SerialRounds` rounds on one thread. Both end with the correctness
  * gate and the retained-heap measurement.
  */
final class RoundRunner(spark: SparkSession, w: Workload, seed: Long) {
  import RoundRunner._

  private val handle = s"roundbench-${w.name}-$seed"
  private val gate = new Gate
  private val spans = new ArrayBuffer[Span]()
  private var engine: WalkEngine = _
  private var tracer: TracingEngine = _
  private var listener: TaskListener = _
  private var jobsRun = 0
  private var streamNs = 0L

  private def walkSeed(r: Int): Long = mix(seed, 2) + r

  def run(seconds: Double, trace: Boolean): RunResult = {
    val runStart = System.nanoTime()
    val epochStartMs = System.currentTimeMillis()
    val notes = new ArrayBuffer[String]()

    val t0 = System.nanoTime()
    val graph = GraphGen.generate(w.spec)
    val generateS = (System.nanoTime() - t0) / 1e9
    val n = graph.numVertices
    val stream = timeStream(new UpdateStream(graph.edges, w.batch, mix(seed, 1)))
    val ref = new Reference(n, stream.initialEdges)
    val replayIds = {
      val rng = new SplittableRandom(mix(seed, 3))
      Seq.fill(ReplayWalkers)(rng.nextLong(w.walkers.toLong))
    }

    val buildNs = (1 to SetupRepeats).map { _ =>
      engine = null
      System.gc()
      val b0 = System.nanoTime()
      engine = w.factory.build(n, stream.initialEdges)
      System.nanoTime() - b0
    }
    // Collect once before the rounds: the discarded builds' garbage is not
    // paid for inside them, and the new engine is moved by this collection
    // rather than by whichever young collections come first.
    System.gc()
    if (trace) {
      tracer = new TracingEngine(engine)
      listener = new TaskListener
      spark.sparkContext.addSparkListener(listener)
    }

    val rounds = new ArrayBuffer[RoundTimes]()
    var truncated = 0L
    var r = 0
    var firstJobS = Double.NaN
    var warmedUp = 0
    try {
      try {
        firstJobS = runRound(r, traced = false, stream, ref, replayIds).updateWallNs / 1e9
        r += 1
        val w0 = System.nanoTime()
        while (r < WarmupRounds || System.nanoTime() - w0 < WarmupSeconds * 1e9) {
          runRound(r, traced = false, stream, ref, replayIds)
          r += 1
        }
        warmedUp = r
        val m0 = System.nanoTime()
        while (System.nanoTime() - m0 < seconds * 1e9) {
          rounds += runRound(r, traced = trace && r % 2 == 1, stream, ref, replayIds)
          r += 1
        }
      } catch { case _: JobFailed => notes += s"stopped at round $r: a Spark job failed" }

      GraphStore.register(handle, engine)
      val serialMs =
        if (!trace) Seq.empty
        else
          (0 until SerialRounds).map { _ =>
            val batch = nextBatch(stream, ref)
            val (ms, t) = serialRound(batch, r, ref)
            truncated += t
            r += 1
            ms
          }

      gate.checkGraph(engine, ref, stream.poolEdges)
      gate.checkNextHop(engine, ref, Gate.nextHopVertices(ref, mix(seed, 4)), mix(seed, 5))

      val modelMb = engine.memoryBytes / 1e6
      val census = groupCensus()
      val summaries = if (trace) tracer.drain().filter(_.round >= 0) else Seq.empty
      val retainedMb = releaseEngine()
      // the inputs stay reachable through both heap readings
      java.lang.ref.Reference.reachabilityFence(Seq(graph, stream, ref))

      if (rounds.isEmpty) notes += "no round was measured"
      val endToEnd =
        if (trace || rounds.isEmpty) Seq.empty
        else endToEndMetrics(rounds.toSeq, Stats.median(buildNs.map(_ / 1e9)), retainedMb, notes)
      val tasks =
        if (!trace) Seq.empty
        else {
          require(listener.awaitJobs(jobsRun), "Spark listener missed job ends")
          listener.records
        }
      val perLayer =
        if (!trace || rounds.isEmpty) Seq.empty
        else {
          val untraced = rounds.filterNot(_.traced).map(_.wallNs / 1e6).toSeq
          val traced = rounds.filter(_.traced).map(_.wallNs / 1e6).toSeq
          addSpans(rounds.toSeq, tasks, runStart, epochStartMs)
          layerMetrics(rounds.filter(_.traced).toSeq, summaries, tasks) ++ coreMetrics(census) ++ Seq(
            Metric("engine.model_mb", modelMb, "MB"),
            Metric("walk.truncated_frac", truncated.toDouble / (SerialRounds.toLong * w.walkers), "ratio"),
            Metric("eval.serial_round_ms", Stats.median(serialMs), "ms"),
            Metric("eval.first_job_s", firstJobS, "s"),
            Metric("eval.warmup_rounds", warmedUp, "count"),
            Metric("graph.generate_s", generateS, "s"),
            Metric("graph.stream_s", streamNs / 1e9, "s"),
          ) ++ Option.when(traced.nonEmpty && untraced.nonEmpty)(
            Metric("trace.overhead", Stats.median(traced) / Stats.median(untraced), "ratio")
          )
        }
      spans += Span(0, -1, s"run ${w.name}", -1, runStart, System.nanoTime())
      notes += buildNs.map(b => f"${b / 1e9}%.3f").mkString("setup builds (s): ", " ", "")
      notes += f"first Spark job $firstJobS%.3f s; $warmedUp warm-up rounds discarded; ${rounds.length} measured rounds"
      notes += f"retained $retainedMb%.2f MB measured, $modelMb%.2f MB by the engine's memoryBytes model"
      notes += f"input generation: graph $generateS%.3f s, update stream ${streamNs / 1e9}%.3f s"
      RunResult(endToEnd ++ perLayer, gate, notes.toSeq, spans.toSeq, rounds.toSeq, summaries, tasks)
    } finally {
      GraphStore.remove(handle)
      if (listener != null) spark.sparkContext.removeSparkListener(listener)
    }
  }

  // Engine references live only in fields and in the frames of short helper
  // methods: a local of `run` could keep the engine reachable and hide it
  // from the retained-heap measurement.
  private def groupCensus(): Map[repro.core.GroupType, Long] = engine match {
    case b: BingoEngine => b.groupTypeCensus
    case _ => Map.empty
  }

  /** Drop every reference to the engine; return the MB this freed after a full GC. */
  private def releaseEngine(): Double = {
    val liveBytes = usedHeapAfterGc()
    GraphStore.remove(handle)
    engine = null
    tracer = null
    (liveBytes - usedHeapAfterGc()) / 1e6
  }

  private def timeStream[A](f: => A): A = {
    val t0 = System.nanoTime()
    val a = f
    streamNs += System.nanoTime() - t0
    a
  }

  private def nextBatch(stream: UpdateStream, ref: Reference): Vector[Update] = {
    val batch = timeStream(stream.nextBatch(w.batch))
    batch.foreach(ref.apply)
    batch
  }

  private def runRound(
      r: Int,
      traced: Boolean,
      stream: UpdateStream,
      ref: Reference,
      replayIds: Seq[Long],
  ): RoundTimes = {
    val batch = nextBatch(stream, ref)
    GraphStore.register(handle, if (traced) tracer else engine)
    val sc = spark.sparkContext
    sc.setLocalProperty(TracingEngine.RoundKey, r.toString)
    val (conv0, touch0) = conversionCounts
    val t0 = System.nanoTime()
    val cpU = job(r, "update")(Bench.applyRoundSpark(spark, handle, batch))
    val t1 = System.nanoTime()
    val (conv1, touch1) = conversionCounts
    val (steps, cpW) = job(r, "walk")(Bench.runWalksSpark(spark, handle, w.app, w.walkers, walkSeed(r)))
    val t2 = System.nanoTime()
    sc.setLocalProperty(TracingEngine.RoundKey, null)
    sc.setLocalProperty(TracingEngine.JobKey, null)

    replayIds.foreach { wid =>
      val path = Walks.walkPath(engine, w.app, (wid % engine.numVertices).toInt, Walks.walkerRng(walkSeed(r), wid))
      gate.checkWalk(path, w.app, ref)
    }
    RoundTimes(r, traced, t0, t1 - t0, (cpU * 1e9).toLong, t2 - t1, (cpW * 1e9).toLong, steps, conv1 - conv0, touch1 - touch0)
  }

  private def conversionCounts: (Long, Long) = engine match {
    case b: BingoEngine => (b.conversions.totalConversions, b.conversions.totalTouches)
    case _ => (0L, 0L)
  }

  private def job[A](r: Int, name: String)(f: => A): A = {
    spark.sparkContext.setLocalProperty(TracingEngine.JobKey, name)
    jobsRun += 1
    try {
      val a = f
      gate.check(ok = true, "")
      a
    } catch {
      case NonFatal(e) =>
        gate.check(ok = false, s"round $r: $name job threw $e")
        throw new JobFailed
    }
  }

  /** One round on the calling thread: `applyRoundLocal`, then every walker
    * through `Walks.walkPath`. Returns its wall ms and the walks that ended early.
    */
  private def serialRound(batch: Seq[Update], r: Int, ref: Reference): (Double, Long) = {
    val lens = new Array[Int](w.walkers)
    val lasts = new Array[Int](w.walkers)
    val t0 = System.nanoTime()
    engine.applyRoundLocal(batch)
    var wid = 0
    while (wid < w.walkers) {
      val path = Walks.walkPath(engine, w.app, wid % engine.numVertices, Walks.walkerRng(walkSeed(r), wid.toLong))
      lens(wid) = path.length
      lasts(wid) = path.last
      wid += 1
    }
    val ms = (System.nanoTime() - t0) / 1e6
    (ms, lens.indices.count(i => Gate.endedEarly(w.app, lens(i), lasts(i), ref)).toLong)
  }

  private def endToEndMetrics(
      rounds: Seq[RoundTimes],
      setupS: Double,
      retainedMb: Double,
      notes: ArrayBuffer[String],
  ): Seq[Metric] = {
    val roundMs = rounds.map(_.wallNs / 1e6)
    val (tailP, tailMs) = Stats.tail(roundMs).getOrElse {
      notes += s"only ${roundMs.length} rounds: round_ms_tail falls back to the maximum"
      (100.0, roundMs.max)
    }
    notes += f"round_ms_tail is p$tailP%.0f of ${roundMs.length} measured rounds"
    val updS = Stats.median(rounds.map(_.updateWallNs / 1e9))
    val walkS = Stats.median(rounds.map(_.walkWallNs / 1e9))
    Seq(
      Metric("setup_s", setupS, "s"),
      Metric("round_ms_p50", Stats.median(roundMs), "ms"),
      Metric("round_ms_tail", tailMs, "ms"),
      Metric("updates_per_s", w.batch / updS, "1/s"),
      Metric("walk_steps_per_s", Stats.median(rounds.map(_.steps.toDouble)) / walkS, "1/s"),
      Metric("retained_mb", retainedMb, "MB"),
    )
  }

  /** Per-round layer numbers of the traced rounds, each reported as its
    * median. A metric no traced round defines is left out, and the run
    * then cannot be reported.
    */
  private def layerMetrics(
      rounds: Seq[RoundTimes],
      summaries: Seq[TaskEngineTime],
      tasks: Seq[TaskRecord],
  ): Seq[Metric] = {
    val byRound = summaries.groupBy(s => (s.round, s.job)).withDefaultValue(Seq.empty)
    val tasksByRound = tasks.groupBy(t => (t.round, t.job)).withDefaultValue(Seq.empty)
    def med(name: String, unit: String)(f: RoundTimes => Option[Double]): Option[Metric] = {
      val xs = rounds.flatMap(f(_))
      Option.when(xs.nonEmpty)(Metric(name, Stats.median(xs), unit))
    }
    def upd(rt: RoundTimes) = byRound((rt.round, "update"))
    def walk(rt: RoundTimes) = byRound((rt.round, "walk"))
    def ratio(num: Double, den: Double): Option[Double] = if (den > 0) Some(num / den) else None
    def roundTasks(rt: RoundTimes) = tasksByRound((rt.round, "update")) ++ tasksByRound((rt.round, "walk"))
    def skew(ts: Seq[TaskRecord]): Option[Double] =
      if (ts.isEmpty) None else Some(ts.map(_.runMs).max / math.max(1.0, Stats.median(ts.map(_.runMs.toDouble))))

    Seq(
      med("engine.update_ns_per_update", "ns")(rt => ratio(upd(rt).map(_.updateNs).sum, upd(rt).map(_.updates).sum)),
      med("engine.rebuild_ms", "ms")(rt => Some(upd(rt).map(_.rebuildNs).sum / 1e6)),
      med("engine.rebuild_cp_ms", "ms")(rt => upd(rt).map(_.rebuildNs / 1e6).maxOption),
      med("engine.sample_ns", "ns")(rt => ratio(walk(rt).map(_.sampleNs).sum, walk(rt).map(_.sampleCalls).sum)),
      med("engine.has_edge_ns_per_step", "ns")(rt => ratio(walk(rt).map(_.hasEdgeNs).sum, rt.steps)),
      med("engine.sample_calls", "count")(rt => Some(walk(rt).map(_.sampleCalls).sum.toDouble)),
      med("engine.has_edge_calls", "count")(rt => Some(walk(rt).map(_.hasEdgeCalls).sum.toDouble)),
      med("engine.dead_ends", "count")(rt => Some(walk(rt).map(_.deadEnds).sum.toDouble)),
      med("walk.self_ns_per_step", "ns") { rt =>
        val taskNs = tasksByRound((rt.round, "walk")).map(_.runMs).sum * 1e6
        ratio(taskNs - walk(rt).map(_.engineNs).sum, rt.steps)
      },
      med("walk.accept_ratio", "ratio")(rt => ratio(rt.steps, walk(rt).map(_.sampleCalls).sum)),
      med("eval.update_job_ms", "ms")(rt => Some(rt.updateWallNs / 1e6)),
      med("eval.update_cp_ms", "ms")(rt => Some(rt.updateCpNs / 1e6)),
      med("eval.update_overhead_ms", "ms")(rt => Some((rt.updateWallNs - rt.updateCpNs) / 1e6)),
      med("eval.walk_job_ms", "ms")(rt => Some(rt.walkWallNs / 1e6)),
      med("eval.walk_cp_ms", "ms")(rt => Some(rt.walkCpNs / 1e6)),
      med("eval.walk_overhead_ms", "ms")(rt => Some((rt.walkWallNs - rt.walkCpNs) / 1e6)),
      med("eval.task_deser_ms", "ms")(rt => meanOf(roundTasks(rt).map(_.deserMs.toDouble))),
      med("eval.sched_delay_ms", "ms")(rt => meanOf(roundTasks(rt).map(_.schedDelayMs.toDouble))),
      med("eval.task_gc_ms", "ms")(rt => roundTasks(rt).map(_.gcMs.toDouble).maxOption),
      med("eval.task_skew", "ratio") { rt =>
        skew(tasksByRound((rt.round, if (rt.updateWallNs > rt.walkWallNs) "update" else "walk")))
      },
      med("core.conversions", "count")(rt => Some(rt.conversions.toDouble)),
      med("core.group_touches", "count")(rt => Some(rt.touches.toDouble)),
    ).flatten
  }

  /** Group census after the run and Bingo's Table 1 row at d = 4096. An
    * engine other than Bingo has no radix groups, so its counts are 0; the
    * Table 1 row does not depend on the workload and is measured on every one.
    */
  private def coreMetrics(census: Map[repro.core.GroupType, Long]): Seq[Metric] = {
    import repro.core.GroupType._
    val row = Tables.table1Rows(degrees = Seq(4096)).find(_.method == "Bingo").toSeq
    def c(name: String, t: repro.core.GroupType) = Metric(name, census.getOrElse(t, 0L).toDouble, "count")
    def iso(name: String, f: Tables.Table1Row => Double) = row.map(x => Metric(name, f(x), "ns"))
    Seq(
      c("core.groups_dense", Dense),
      c("core.groups_regular", Regular),
      c("core.groups_sparse", Sparse),
      c("core.groups_one", OneElement),
    ) ++ iso("core.isolated_sample_ns", _.sampleNs) ++ iso("core.isolated_insert_ns", _.insertNs) ++
      iso("core.isolated_delete_ns", _.deleteNs)
  }

  /** Round, job and task spans of the measured rounds. Task times come
    * from Spark in epoch ms and are mapped onto the run's nanosecond clock.
    */
  private def addSpans(rounds: Seq[RoundTimes], tasks: Seq[TaskRecord], runStart: Long, epochStartMs: Long): Unit = {
    def ns(epochMs: Long) = runStart + (epochMs - epochStartMs) * 1000000L
    val tasksBy = tasks.groupBy(t => (t.round, t.job))
    rounds.foreach { rt =>
      val rid = spans.length + 1
      spans += Span(rid, 0, if (rt.traced) "round (traced)" else "round", rt.round, rt.startNs, rt.startNs + rt.wallNs)
      val jobs = Seq(
        ("update", rt.startNs, rt.startNs + rt.updateWallNs),
        ("walk", rt.startNs + rt.updateWallNs, rt.startNs + rt.wallNs),
      )
      jobs.foreach { case (name, s, e) =>
        val jid = spans.length + 1
        spans += Span(jid, rid, s"$name job", rt.round, s, e)
        tasksBy.getOrElse((rt.round, name), Seq.empty).foreach { t =>
          spans += Span(spans.length + 1, jid, s"$name task ${t.taskId}", rt.round, ns(t.launchMs), ns(t.finishMs))
        }
      }
    }
  }
}

object RoundRunner {
  private final class JobFailed extends RuntimeException

  /** Engine builds per run; their median is `setup_s`. */
  val SetupRepeats = 5

  /** Warm-up: at least this many rounds, and this long after the first
    * round, since the JIT keeps speeding rounds up for several seconds.
    */
  val WarmupRounds = 10
  val WarmupSeconds = 10.0

  /** Walkers replayed untimed after each round and checked hop by hop. */
  val ReplayWalkers = 32

  /** Rounds run on one thread in a traced run (`eval.serial_round_ms`). */
  val SerialRounds = 3

  /** A seed for the `salt`-th input stream of run seed `seed`. */
  def mix(seed: Long, salt: Long): Long = new SplittableRandom(seed ^ (salt * 0x9E3779B97F4A7C15L)).nextLong()

  private def meanOf(xs: Seq[Double]): Option[Double] = if (xs.isEmpty) None else Some(xs.sum / xs.length)

  /** Used heap after full collections (a quiet second lets Spark's
    * cleaner drop what the collections made unreachable).
    */
  private def usedHeapAfterGc(): Long = {
    val mem = ManagementFactory.getMemoryMXBean
    System.gc()
    Thread.sleep(200)
    System.gc()
    mem.getHeapMemoryUsage.getUsed
  }
}
