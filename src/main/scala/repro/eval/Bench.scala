package repro.eval

import scala.collection.immutable.ArraySeq
import org.apache.spark.sql.SparkSession
import repro.engine.{EngineFactory, GraphStore, WalkEngine}
import repro.graph.{GraphGen, Update, UpdateGen, UpdateMode}
import repro.walk.Walks

/** The paper's evaluation workflow (§6.1): per round, (i) apply BATCHSIZE
  * graph updates, (ii) run the random-walk application; repeat for all
  * rounds and report the total time plus the engine's retained memory.
  *
  * Parallelisation mirrors the GPU design through Spark's RDD core: a
  * round is one Spark job with one task per vertex slice (`v % P`, the 1-D
  * partitioning of supplement §9.1); each task receives only its slice's
  * updates, applies them per vertex and then runs its slice of the
  * engine's per-round rebuild. Walks fan out as a range of walker ids, one
  * partition per core.
  *
  * **Timing.** Reported times are the per-round critical path measured
  * *inside* the tasks (max task time per round, summed over rounds) — the
  * analogue of GPU kernel time in the paper. Spark's per-job overhead
  * outside the tasks (about 20–25 ms per job on a 4-vCPU box, identical for
  * every system and about 10× the in-task cost of a 1000-update batch at
  * -lite scale) would otherwise drown the systems' algorithmic differences.
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
    * The driver splits the batch by slice into primitive columns, and each
    * task receives only its own slice's updates. An update whose src or dst
    * is not a vertex of the engine is rejected before any task runs.
    *
    * @return critical-path seconds: the slowest task's in-task time
    */
  def applyRoundSpark(spark: SparkSession, handle: String, round: Seq[Update]): Double = {
    val sc = spark.sparkContext
    val p = math.max(1, sc.defaultParallelism)
    val batches = splitBySlice(round, p, GraphStore.get(handle).numVertices)
    // p batches in p partitions: exactly one slice per task
    val taskNanos = sc
      .parallelize(batches.toSeq, p)
      .map { batch =>
        val eng = GraphStore.get(handle)
        val t0 = System.nanoTime()
        batch.applyTo(eng)
        eng.postRoundSlice(batch.slice, p)
        System.nanoTime() - t0
      }
      .collect()
    taskNanos.max / 1e9
  }

  /** Run the walk phase, returning (steps sampled, critical-path seconds). */
  def runWalksSpark(
      spark: SparkSession,
      handle: String,
      app: Walks.WalkApp,
      walkers: Int,
      seed: Long,
  ): (Long, Double) = {
    val perTask = spark.sparkContext
      .range(0L, walkers.toLong)
      .mapPartitions { it =>
        val eng = GraphStore.get(handle)
        val t0 = System.nanoTime()
        var steps = 0L
        it.foreach { wid =>
          val rng = Walks.walkerRng(seed, wid)
          val start = (wid % eng.numVertices).toInt
          steps += Walks.walkPath(eng, app, start, rng).length - 1
        }
        Iterator.single((steps, System.nanoTime() - t0))
      }
      .collect()
    (perTask.map(_._1).sum, perTask.map(_._2).max / 1e9)
  }

  /** One slice's updates (`src % p == slice`) in batch order, as columns. */
  private final class SliceBatch(val slice: Int, capacity: Int) extends Serializable {
    private val ts = new Array[Long](capacity)
    private val insert = new Array[Boolean](capacity)
    private val src = new Array[Int](capacity)
    private val dst = new Array[Int](capacity)
    private val bias = new Array[Double](capacity)
    private var n = 0

    def +=(u: Update): Unit = {
      ts(n) = u.ts
      insert(n) = u.insert
      src(n) = u.src
      dst(n) = u.dst
      bias(n) = u.bias
      n += 1
    }

    /** Apply each vertex's updates in `ts` order (a stable sort, as in `applyRoundLocal`). */
    def applyTo(eng: WalkEngine): Unit = {
      // (src, batch position) packed in one long: one primitive sort groups
      // the updates by vertex and keeps batch order within a vertex
      val keys = Array.tabulate(n)(i => (src(i).toLong << 32) | i)
      java.util.Arrays.sort(keys)
      var i = 0
      while (i < n) {
        val v = (keys(i) >>> 32).toInt
        var j = i
        while (j < n && (keys(j) >>> 32).toInt == v) j += 1
        val us = Array.tabulate(j - i) { k =>
          val x = keys(i + k).toInt
          Update(ts(x), insert(x), v, dst(x), bias(x))
        }
        eng.applyVertexUpdates(v, ArraySeq.unsafeWrapArray(us.sortBy(_.ts)))
        i = j
      }
    }
  }

  /** Split `round` into `p` slice batches: count, then fill. Rejects an
    * update whose src or dst is not a vertex of the `n`-vertex engine.
    */
  private def splitBySlice(round: Seq[Update], p: Int, n: Int): Array[SliceBatch] = {
    val counts = new Array[Int](p)
    round.foreach { u =>
      require(u.src >= 0, s"update $u has a negative src")
      require(u.dst >= 0, s"update $u has a negative dst")
      require(u.src < n && u.dst < n, s"update $u names a vertex outside the engine's $n vertices")
      counts(u.src % p) += 1
    }
    val batches = Array.tabulate(p)(s => new SliceBatch(s, counts(s)))
    round.foreach(u => batches(u.src % p) += u)
    batches
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
