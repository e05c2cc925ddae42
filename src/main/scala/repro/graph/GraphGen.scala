package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Deterministic synthetic graphs standing in for the paper's five datasets.
  *
  * The container has no network egress, so the Konect/SNAP graphs of paper
  * Table 2 are replaced by power-law generators scaled down ~100–2000× while
  * preserving each dataset's *shape*: average degree, (scaled) maximum
  * out-degree, and degree skew. See DESIGN.md §2 for the substitution
  * rationale; actual stats are reported by the Table 2 bench.
  *
  * Out-degrees follow a truncated zipf `deg(rank) ∝ maxDeg · (rank+1)^-θ`
  * with θ solved by bisection to hit the target edge count. Destinations are
  * drawn with skew toward low ranks (`dst = ⌊V · u^skew⌋`) so high
  * out-degree vertices also attract walkers — this is what drives
  * FlowWalker's O(d) blow-up on TW in paper Table 3 / Fig. 16.
  *
  * Biases follow the paper's default rule (§6.1): bias(u→v) = out-degree(v),
  * which is power-law distributed.
  */
object GraphGen {

  /** Shape parameters of one -lite dataset. */
  final case class DatasetSpec(
      abbr: String,
      name: String,
      nVertices: Int,
      targetEdges: Int,
      maxDegree: Int,
      dstSkew: Double,
      seed: Long,
  )

  /** Paper Table 2, scaled: Amazon, Google, Citation, LiveJournal, Twitter. */
  val AM: DatasetSpec = DatasetSpec("AM", "Amazon-lite", 4000, 34000, 10, 1.2, 11L)
  val GO: DatasetSpec = DatasetSpec("GO", "Google-lite", 8800, 51000, 456, 2.0, 12L)
  val CT: DatasetSpec = DatasetSpec("CT", "Citation-lite", 19000, 84000, 770, 2.0, 13L)
  val LJ: DatasetSpec = DatasetSpec("LJ", "LiveJournal-lite", 24000, 343000, 2500, 2.0, 14L)
  val TW: DatasetSpec = DatasetSpec("TW", "Twitter-lite", 20000, 700000, 12000, 2.5, 15L)
  val All: Seq[DatasetSpec] = Seq(AM, GO, CT, LJ, TW)

  /** A generated graph: deduplicated directed edges with degree biases. */
  final case class GeneratedGraph(spec: DatasetSpec, edges: Vector[Edge]) {
    def numVertices: Int = spec.nVertices
    def toDF(spark: SparkSession): DataFrame = {
      import spark.implicits._
      edges.toDF()
    }
  }

  /** Zipf-ish out-degree sequence: solve θ so Σ deg ≈ targetEdges. */
  def degreeSequence(spec: DatasetSpec): Array[Int] = {
    val v = spec.nVertices
    val cap = math.min(spec.maxDegree, v - 1)
    def total(theta: Double): Long = {
      var s = 0L
      var r = 0
      while (r < v) {
        val dg = math.max(1L, math.round(cap * math.pow(r + 1.0, -theta)))
        s += math.min(cap.toLong, dg)
        r += 1
      }
      s
    }
    var lo = 0.0
    var hi = 10.0
    var i = 0
    while (i < 80) {
      val mid = (lo + hi) / 2
      if (total(mid) > spec.targetEdges) lo = mid else hi = mid
      i += 1
    }
    val theta = (lo + hi) / 2
    Array.tabulate(v) { r =>
      math.min(cap, math.max(1L, math.round(cap * math.pow(r + 1.0, -theta)))).toInt
    }
  }

  /** Generate the full deduplicated edge set (deterministic in the spec seed). */
  def generate(spec: DatasetSpec): GeneratedGraph = {
    val rnd = new Random(spec.seed)
    val v = spec.nVertices
    val degs = degreeSequence(spec)
    val edges = new ArrayBuffer[(Int, Int)](spec.targetEdges)
    var src = 0
    while (src < v) {
      val want = degs(src)
      val seen = new java.util.HashSet[Integer](want * 2)
      var got = 0
      var tries = 0
      val maxTries = want * 20 + 50
      while (got < want && tries < maxTries) {
        val dst = math.min(v - 1, (v * math.pow(rnd.nextDouble(), spec.dstSkew)).toInt)
        if (dst != src && seen.add(dst)) {
          edges += ((src, dst))
          got += 1
        }
        tries += 1
      }
      src += 1
    }
    // Paper §6.1: bias(u→v) = degree of v (power-law by construction).
    val out = edges.map { case (s, t) => Edge(s, t, degs(t).toDouble) }.toVector
    GeneratedGraph(spec, out)
  }
}
