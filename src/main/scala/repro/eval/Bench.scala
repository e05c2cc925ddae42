package repro.eval

import org.apache.spark.TaskContext
import org.apache.spark.sql.SparkSession
import repro.engine.{EngineFactory, GraphStore, UpdateBatch, WalkEngine}
import repro.graph.{GraphGen, Update, UpdateGen, UpdateMode}
import repro.walk.Walks

/** The paper's evaluation workflow (§6.1): per round, (i) apply BATCHSIZE
  * graph updates, (ii) run the random-walk application; repeat for all
  * rounds and report the total time plus the engine's retained memory.
  *
  * Parallelisation mirrors the GPU design through Spark's RDD core: a
  * round is one Spark job with one task per vertex slice (`v % P`, the 1-D
  * partitioning of supplement §9.1); each task receives only its slice's
  * [[repro.engine.UpdateBatch]] (validated and grouped by vertex on the
  * driver, the same batch `applyRoundLocal` applies as one slice), applies
  * it per vertex and then runs its slice of the engine's per-round
  * rebuild. Walks fan out the same way in [[Walks.runWalkers]]: task s
  * walks a contiguous range of walker ids. Each job is one `sc.runJob` over
  * one `sc.parallelize` RDD with a `(TaskContext, Iterator)` task function:
  * every further RDD layer or Spark-side wrapper closure (`collect`,
  * `range`, `mapPartitions`) cost about 4 ms per job on a 4-vCPU box.
  *
  * **Timing.** Reported times are the per-round critical path measured
  * *inside* the tasks (max task time per round, summed over rounds) — the
  * analogue of GPU kernel time in the paper. Spark's per-job overhead
  * outside the tasks (8–21 ms per walk job and 14–37 ms per update job on
  * a 4-vCPU box, identical for every system and several times the in-task
  * cost of a 1000-update batch at -lite scale) would otherwise drown the
  * systems' algorithmic differences.
  */
object Bench {

  /** Scaled-down defaults (paper: BATCHSIZE=100K, walkers=|V|). Override via
    * REPRO_BENCH_* environment variables.
    */
  final case class Params(
      batchSize: Int = envInt("REPRO_BENCH_BATCH", 1000),
      rounds: Int = envInt("REPRO_BENCH_ROUNDS", 10),
      walkers: Int = envInt("REPRO_BENCH_WALKERS", 2048),
      walkLength: Int = envInt("REPRO_BENCH_WALKLEN", 80),
      seed: Long = 7L,
  )

  private def envInt(k: String, dflt: Int): Int = sys.env.get(k).map(_.toInt).getOrElse(dflt)

  final case class Result(
      dataset: String,
      app: String,
      mode: String,
      framework: String,
      updateSec: Double,
      walkSec: Double,
      memMB: Double,
      steps: Long,
  ) {
    def totalSec: Double = updateSec + walkSec
  }

  /** Apply one update round as a single Spark job (one task per slice).
    * The driver validates the round and splits it into one [[UpdateBatch]]
    * per slice, so a malformed update is rejected before any task runs and
    * each task receives only its own slice's updates.
    *
    * @return critical-path seconds: the slowest task's in-task time
    */
  def applyRoundSpark(spark: SparkSession, handle: String, round: Seq[Update]): Double = {
    val sc = spark.sparkContext
    val p = math.max(1, sc.defaultParallelism)
    val batches = UpdateBatch.split(round, p, GraphStore.get(handle).numVertices)
    // p batches in p partitions: partition s holds exactly slice s
    val taskNanos = sc.runJob(sc.parallelize(batches.toSeq, p), (ctx: TaskContext, it: Iterator[UpdateBatch]) => {
      val eng = GraphStore.get(handle)
      val t0 = System.nanoTime()
      it.foreach(_.applyTo(eng))
      eng.postRoundSlice(ctx.partitionId(), p)
      System.nanoTime() - t0
    })
    taskNanos.max / 1e9
  }

  /** Run the walk phase as one [[Walks.runWalkers]] job, returning (steps
    * sampled, critical-path seconds).
    */
  def runWalksSpark(
      spark: SparkSession,
      handle: String,
      app: Walks.WalkApp,
      walkers: Int,
      seed: Long,
  ): (Long, Double) = {
    val perTask = Walks.runWalkers(spark, handle, app, walkers, seed) { walks =>
      val t0 = System.nanoTime()
      var steps = 0L
      walks.foreach { case (_, path) => steps += path.length - 1 }
      (steps, System.nanoTime() - t0)
    }
    (perTask.map(_._1).sum, perTask.map(_._2).max / 1e9)
  }

  /** Run one cell of Table 3: a (dataset, app, mode, framework) config. */
  def runConfig(
      spark: SparkSession,
      graph: GraphGen.GeneratedGraph,
      app: Walks.WalkApp,
      mode: UpdateMode,
      factory: EngineFactory,
      params: Params = Params(),
  ): Result = {
    val plan = UpdateGen.plan(graph.edges, mode, params.batchSize, params.rounds, params.seed)
    val engine: WalkEngine = factory.build(graph.numVertices, plan.initialEdges)
    val handle = s"bench-${graph.spec.abbr}-${app.label}-${mode.label}-${factory.name}"
    GraphStore.register(handle, engine)
    try {
      var updSec = 0.0
      var walkSec = 0.0
      var steps = 0L
      plan.rounds.zipWithIndex.foreach { case (round, r) =>
        updSec += applyRoundSpark(spark, handle, round)
        val (s, w) = runWalksSpark(spark, handle, app, params.walkers, params.seed + r)
        steps += s
        walkSec += w
      }
      Result(
        graph.spec.abbr,
        app.label,
        mode.label,
        factory.name,
        updSec,
        walkSec,
        engine.memoryBytes / 1e6,
        steps,
      )
    } finally GraphStore.remove(handle)
  }
}
