package repro.walk

import java.util.SplittableRandom
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.engine.{GraphStore, WalkEngine}

/** The random-walk applications of paper §6.1 over any [[WalkEngine]].
  *
  * Mirrors Bingo's kernels: random_walk_deepwalk, random_walk_node2vec,
  * random_walk_ppr and random_walk_simple_sampling. [[walkPath]] walks one
  * walker against an engine; [[paths]] fans walkers out across Spark tasks
  * (partitioned across cores — the stand-in for GPU thread parallelism), each
  * walking locally against the engine registered in [[GraphStore]], and
  * returns the paths as a DataFrame for relational aggregation (visit counts
  * etc.). The benchmark's step-counting fan-out is
  * [[repro.eval.Bench.runWalksSpark]].
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

  /** Walk one path; the first entry is the start vertex. Pure driver/task code. */
  def walkPath(eng: WalkEngine, app: WalkApp, start: Int, rng: SplittableRandom): Array[Int] = {
    app match {
      case DeepWalk(length) =>
        val path = new Array[Int](length)
        path(0) = start
        var cur = start
        var i = 1
        while (i < length) {
          val nxt = eng.sampleNext(cur, rng)
          if (nxt < 0) return java.util.Arrays.copyOf(path, i)
          path(i) = nxt
          cur = nxt
          i += 1
        }
        path

      case Node2vec(length, p, q) =>
        val path = new Array[Int](length)
        path(0) = start
        var prev = -1
        var cur = start
        var i = 1
        val maxF = math.max(1.0, math.max(1.0 / p, 1.0 / q))
        while (i < length) {
          var nxt = -1
          if (prev < 0) {
            nxt = eng.sampleNext(cur, rng) // first hop is first-order
          } else {
            // KnightKing-style rejection on the walk history (Eq. 1)
            var accepted = false
            var tries = 0
            while (!accepted && tries < 10000) {
              val cand = eng.sampleNext(cur, rng)
              if (cand < 0) { accepted = true; nxt = -1 }
              else {
                val f =
                  if (cand == prev) 1.0 / p
                  else if (eng.hasEdge(prev, cand)) 1.0
                  else 1.0 / q
                if (rng.nextDouble() * maxF < f) { accepted = true; nxt = cand }
              }
              tries += 1
            }
          }
          if (nxt < 0) return java.util.Arrays.copyOf(path, i)
          path(i) = nxt
          prev = cur
          cur = nxt
          i += 1
        }
        path

      case Ppr(stopProb, maxLength) =>
        val buf = new scala.collection.mutable.ArrayBuffer[Int](96)
        buf += start
        var cur = start
        var i = 1
        while (i < maxLength && rng.nextDouble() >= stopProb) {
          val nxt = eng.sampleNext(cur, rng)
          if (nxt < 0) return buf.toArray
          buf += nxt
          cur = nxt
          i += 1
        }
        buf.toArray

      case SimpleSampling =>
        val nxt = eng.sampleNext(start, rng)
        if (nxt < 0) Array(start) else Array(start, nxt)
    }
  }

  /** Deterministic per-walker RNG. */
  def walkerRng(seed: Long, walkerId: Long): SplittableRandom =
    new SplittableRandom(seed ^ (walkerId * 0x9E3779B97F4A7C15L))

  /** Fan `numWalkers` walkers out across Spark tasks; walker `w` starts at
    * vertex `w mod |V|` (the paper launches vertex-count walkers).
    *
    * @return DataFrame (walker: long, pos: int, vertex: int) — one row per
    *         visited vertex in path order
    */
  def paths(spark: SparkSession, handle: String, app: WalkApp, numWalkers: Int, seed: Long): DataFrame = {
    import spark.implicits._
    spark
      .range(numWalkers)
      .mapPartitions { it =>
        val eng = GraphStore.get(handle)
        it.flatMap { wid =>
          val rng = walkerRng(seed, wid)
          val start = (wid % eng.numVertices).toInt
          walkPath(eng, app, start, rng).iterator.zipWithIndex.map { case (v, pos) => (wid, pos, v) }
        }
      }
      .toDF("walker", "pos", "vertex")
  }

  /** Visit frequency per vertex — the PPR / SimRank / influence indicator
    * (paper §1), computed relationally.
    */
  def visitCounts(paths: DataFrame): DataFrame =
    paths.groupBy("vertex").agg(count(lit(1)).as("visits"))
}
