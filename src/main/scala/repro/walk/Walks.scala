package repro.walk

import java.util.SplittableRandom
import scala.reflect.ClassTag
import org.apache.spark.TaskContext
import org.apache.spark.sql.SparkSession
import repro.engine.{GraphStore, WalkEngine}

/** The random-walk applications of paper §6.1 over any [[WalkEngine]].
  *
  * Mirrors Bingo's kernels: random_walk_deepwalk, random_walk_node2vec,
  * random_walk_ppr and random_walk_simple_sampling. [[walkPath]] walks one
  * walker against an engine, in one loop for all four apps. [[runWalkers]]
  * fans walkers out across Spark tasks (partitioned across cores — the
  * stand-in for GPU thread parallelism), each walking locally against the
  * engine registered in [[GraphStore]]; [[repro.eval.Bench.runWalksSpark]]
  * counts and times the steps it walks.
  */
object Walks {

  sealed trait WalkApp extends Serializable { def label: String }

  /** Biased DeepWalk [46]: fixed-length first-order walk (paper default 80). */
  final case class DeepWalk(length: Int = 80) extends WalkApp {
    require(length >= 1, s"DeepWalk length must be ≥ 1, got $length")
    def label = "DeepWalk"
  }

  /** node2vec [17]: second-order walk; KnightKing's static-sample +
    * history-rejection scheme (§7.3), paper defaults p=0.5, q=2, length 80.
    */
  final case class Node2vec(length: Int = 80, p: Double = 0.5, q: Double = 2.0) extends WalkApp {
    require(length >= 1, s"node2vec length must be ≥ 1, got $length")
    // a zero or NaN p/q would turn every second-order hop into 10,000 rejected tries
    require(p > 0 && q > 0 && p.isFinite && q.isFinite, s"node2vec p and q must be positive and finite, got p=$p q=$q")
    def label = "node2vec"
  }

  /** Personalized PageRank: terminate each step w.p. `stopProb` (paper 1/80). */
  final case class Ppr(stopProb: Double = 1.0 / 80, maxLength: Int = 400) extends WalkApp {
    require(stopProb >= 0 && stopProb <= 1, s"PPR stop probability must be in [0, 1], got $stopProb")
    require(maxLength >= 1, s"PPR maxLength must be ≥ 1, got $maxLength")
    def label = "PPR"
  }

  /** One-step neighbor sampling (the simple_sampling kernel). */
  case object SimpleSampling extends WalkApp { def label = "SimpleSampling" }

  private val InitialPathCap = 96 // PPR's mean path at stopProb 1/80 holds 80 vertices

  /** Walk one path; the first entry is the start vertex. Pure driver/task code.
    * It ends at the app's maximum length, at a dead end or (PPR) on a stop drawn before each hop.
    */
  def walkPath(eng: WalkEngine, app: WalkApp, start: Int, rng: SplittableRandom): Array[Int] = {
    var maxLength = 2 // SimpleSampling: one hop
    var stopProb = -1.0 // PPR: the stop drawn before each hop; < 0: none
    var p, q = 0.0 // node2vec: p > 0 makes every hop after the first second-order
    app match {
      case DeepWalk(length) => maxLength = length
      case Node2vec(length, np, nq) => maxLength = length; p = np; q = nq
      case Ppr(stop, length) => maxLength = length; stopProb = stop
      case SimpleSampling =>
    }
    var path = new Array[Int](math.min(maxLength, InitialPathCap))
    path(0) = start
    var i = 1
    var nxt = start // < 0 after a dead end
    while (nxt >= 0 && i < maxLength && (stopProb < 0 || rng.nextDouble() >= stopProb)) {
      val cur = path(i - 1)
      nxt = if (p > 0 && i > 1) secondOrderHop(eng, path(i - 2), cur, p, q, rng) else eng.sampleNext(cur, rng)
      if (nxt >= 0) {
        if (i == path.length) path = java.util.Arrays.copyOf(path, math.min(2 * i, maxLength))
        path(i) = nxt
        i += 1
      }
    }
    if (i == path.length) path else java.util.Arrays.copyOf(path, i)
  }

  /** One node2vec hop from `cur` after `prev`: KnightKing-style rejection on
    * the walk history (Eq. 1). -1 at a dead end or after 10,000 tries.
    * A candidate other than `prev` has f = 1 (an edge back to `prev`) or
    * 1/q, so a dart below both accepts it and a dart at or above both
    * rejects it without [[WalkEngine.hasEdge]], which draws nothing.
    */
  private def secondOrderHop(eng: WalkEngine, prev: Int, cur: Int, p: Double, q: Double, rng: SplittableRandom): Int = {
    val maxF = math.max(1.0, math.max(1.0 / p, 1.0 / q))
    val lo = math.min(1.0, 1.0 / q)
    val hi = math.max(1.0, 1.0 / q)
    var tries = 0
    while (tries < 10000) {
      val cand = eng.sampleNext(cur, rng)
      if (cand < 0) return -1
      val dart = rng.nextDouble() * maxF
      val accept =
        if (cand == prev) dart < 1.0 / p
        else if (dart < lo) true
        else if (dart >= hi) false
        else dart < (if (eng.hasEdge(prev, cand)) 1.0 else 1.0 / q)
      if (accept) return cand
      tries += 1
    }
    -1
  }

  /** Deterministic per-walker RNG. */
  def walkerRng(seed: Long, walkerId: Long): SplittableRandom =
    new SplittableRandom(seed ^ (walkerId * 0x9E3779B97F4A7C15L))

  /** Fan `walkers` walkers out as one Spark job: one `sc.runJob` over one
    * `sc.parallelize` RDD of p partitions. Task s walks the walker ids
    * `[s·walkers/p, (s+1)·walkers/p)`; walker `w` starts at vertex
    * `w mod |V|` (the paper launches vertex-count walkers) and draws from
    * `walkerRng(seed, w)`. `consume` sees a task's `(w, path)` pairs as they
    * are walked and returns that task's result.
    */
  def runWalkers[R: ClassTag](spark: SparkSession, handle: String, app: WalkApp, walkers: Int, seed: Long)(
      consume: Iterator[(Long, Array[Int])] => R
  ): Array[R] = {
    val sc = spark.sparkContext
    val p = math.max(1, sc.defaultParallelism)
    sc.runJob(sc.parallelize(0 until p, p), (ctx: TaskContext, _: Iterator[Int]) => {
      val s = ctx.partitionId()
      val eng = GraphStore.get(handle)
      consume((s.toLong * walkers / p until (s + 1L) * walkers / p).iterator.map { w =>
        w -> walkPath(eng, app, (w % eng.numVertices).toInt, walkerRng(seed, w))
      })
    })
  }
}
