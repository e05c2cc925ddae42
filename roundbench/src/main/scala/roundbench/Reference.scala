package roundbench

import java.util.SplittableRandom
import scala.collection.mutable.ArrayBuffer
import repro.engine.WalkEngine
import repro.graph.{Edge, Update}
import repro.walk.Walks

/** The reference edge multiset, replayed from the initial snapshot and the
  * update stream independently of any engine.
  */
final class Reference(val numVertices: Int, initial: Seq[Edge]) {
  import Reference.RefEdge

  /** Per source vertex: dst → (multiplicity, bias); null while it has no edge. */
  private val out = new Array[java.util.HashMap[Int, RefEdge]](numVertices)
  val degree = new Array[Int](numVertices)

  initial.foreach(e => add(e.src, e.dst, e.bias))

  private def add(u: Int, v: Int, w: Double): Unit = {
    if (out(u) == null) out(u) = new java.util.HashMap[Int, RefEdge]()
    val e = out(u).get(v)
    if (e == null) out(u).put(v, new RefEdge(1, w))
    else {
      require(e.bias == w, s"edge $u->$v re-inserted with another bias")
      e.count += 1
    }
    degree(u) += 1
  }

  def apply(up: Update): Unit =
    if (up.insert) add(up.src, up.dst, up.bias)
    else {
      val m = out(up.src)
      val e = if (m == null) null else m.get(up.dst)
      require(e != null, s"stream deletes absent edge ${up.src}->${up.dst}")
      e.count -= 1
      if (e.count == 0) m.remove(up.dst)
      degree(up.src) -= 1
    }

  def has(u: Int, v: Int): Boolean = out(u) != null && out(u).containsKey(v)

  /** Every live (src, dst) once. */
  def foreachEdge(f: (Int, Int) => Unit): Unit = {
    var u = 0
    while (u < numVertices) {
      if (out(u) != null) out(u).forEach((v, _) => f(u, v))
      u += 1
    }
  }

  /** Next-hop distribution of `u`: bias × multiplicity, normalised. */
  def distribution(u: Int): Map[Int, Double] = {
    val mass = scala.collection.mutable.Map[Int, Double]()
    if (out(u) != null) out(u).forEach((v, e) => mass(v) = e.bias * e.count)
    val tot = mass.values.sum
    mass.map { case (v, w) => v -> w / tot }.toMap
  }

  /** Bias of the live edge `u`→`v`. */
  def bias(u: Int, v: Int): Double = out(u).get(v).bias

  /** The radix groups of `u` (paper §4): bit k → the number of live
    * out-edges, with multiplicity, whose integer bias has bit k set.
    */
  def radixGroupSizes(u: Int): Map[Int, Int] = {
    val sizes = new Array[Int](64)
    if (out(u) != null) out(u).forEach((_, e) => Reference.bits(e.bias).foreach(k => sizes(k) += e.count))
    sizes.indices.filter(sizes(_) > 0).map(k => k -> sizes(k)).toMap
  }
}

object Reference {
  private final class RefEdge(var count: Int, val bias: Double)

  /** The set bits of a bias's integer part. */
  def bits(bias: Double): Seq[Int] = {
    val b = bias.toLong
    (0 until 64).filter(k => (b >>> k & 1L) == 1L)
  }
}

/** The correctness gate: counts checks attempted and failed, keeping the
  * first few failure messages.
  */
final class Gate {
  var attempted = 0L
  var failed = 0L
  val messages = new ArrayBuffer[String]()

  def check(ok: Boolean, what: => String): Unit = {
    attempted += 1
    if (!ok) {
      failed += 1
      if (messages.length < 10) messages += what
    }
  }

  /** Compare every vertex's out-degree, every live edge and every edge of
    * `absent` (known not to be live) against the reference.
    */
  def checkGraph(eng: WalkEngine, ref: Reference, absent: Seq[Edge]): Unit = {
    var v = 0
    while (v < ref.numVertices) {
      val (got, want) = (eng.outDegree(v), ref.degree(v))
      check(got == want, s"outDegree($v) = $got, reference $want")
      v += 1
    }
    ref.foreachEdge((u, w) => check(eng.hasEdge(u, w), s"hasEdge($u, $w) false for a live edge"))
    absent.foreach { e =>
      if (!ref.has(e.src, e.dst)) check(!eng.hasEdge(e.src, e.dst), s"hasEdge(${e.src}, ${e.dst}) true for a deleted edge")
    }
  }

  /** Check each hop of `path` against the live reference edges, and that a
    * fixed-length walk ends early only where it must or may.
    *
    * @return whether the walk ended early
    */
  def checkWalk(path: Array[Int], app: Walks.WalkApp, ref: Reference): Boolean = {
    var i = 1
    while (i < path.length) {
      val (u, v) = (path(i - 1), path(i))
      check(ref.has(u, v), s"walk hop $u->$v is not a live edge")
      i += 1
    }
    val early = Gate.endedEarly(app, path.length, path.last, ref)
    app match {
      case _: Walks.DeepWalk if early =>
        check(ref.degree(path.last) == 0, s"DeepWalk stopped at ${path.last}, which has ${ref.degree(path.last)} edges")
      case _ =>
    }
    early
  }

  /** One check per vertex of `vs`: draw [[Gate.DrawsPerNeighbour]] next
    * hops per distinct neighbour (at least [[Gate.MinDraws]]) and compare
    * them with the reference bias distribution in two ways.
    *
    *  - Total variation over the neighbours, which catches draws landing
    *    on the wrong vertices. The limit is twice the distance expected
    *    from sampling noise alone, plus 0.01.
    *  - For each bit k of the biases, the share of draws landing on
    *    neighbours whose bias has bit k set, against its reference share:
    *    the mass of radix group k. Each share is one binomial proportion,
    *    so a weighting error in a single group, which total variation over
    *    thousands of neighbours would blur into noise, stands out. The
    *    limit is five standard errors plus 0.001.
    */
  def checkNextHop(eng: WalkEngine, ref: Reference, vs: Seq[Int], seed: Long): Unit = {
    vs.foreach { u =>
      val want = ref.distribution(u).toArray
      val index = new java.util.HashMap[Int, Int]()
      want.indices.foreach(i => index.put(want(i)._1, i))
      val samples = math.max(Gate.MinDraws, Gate.DrawsPerNeighbour * want.length)
      val counts = new Array[Long](want.length)
      var outside = 0L
      val rng = new SplittableRandom(seed ^ u)
      var i = 0
      while (i < samples) {
        val j = index.getOrDefault(eng.sampleNext(u, rng), -1)
        if (j >= 0) counts(j) += 1 else outside += 1
        i += 1
      }

      val tv = (want.indices.map(j => math.abs(counts(j).toDouble / samples - want(j)._2)).sum + outside.toDouble / samples) / 2
      val noise = want.map { case (_, p) => math.sqrt(2 * p * (1 - p) / (math.Pi * samples)) }.sum / 2
      val tvLimit = 2 * noise + 0.01
      val wantShare = new Array[Double](64)
      val gotShare = new Array[Double](64)
      want.indices.foreach { j =>
        Reference.bits(ref.bias(u, want(j)._1)).foreach { k =>
          wantShare(k) += want(j)._2
          gotShare(k) += counts(j).toDouble / samples
        }
      }
      val badGroups = (0 until 64).filter { k =>
        val q = wantShare(k)
        math.abs(gotShare(k) - q) > 5 * math.sqrt(q * (1 - q) / samples) + 0.001
      }
      check(
        tv <= tvLimit && badGroups.isEmpty,
        f"next hops at $u (degree ${ref.degree(u)}, $samples draws): TV $tv%.4f (limit $tvLimit%.4f)" +
          badGroups.map(k => f"; group $k share ${gotShare(k)}%.4f, reference ${wantShare(k)}%.4f").mkString
      )
    }
  }
}

object Gate {

  val DrawsPerNeighbour = 200
  val MinDraws = 100000

  /** The vertices of the next-hop check: the three of highest degree, whose
    * radix groups are mostly dense or regular, and three chosen by `seed`
    * among those that hold both a sparse and a one-element group, classified
    * from the reference by the paper's rule (sparse: more than one edge but
    * fewer than 10% of the out-edges). These have at most 2,000 out-edges,
    * which keeps their draws cheap.
    */
  def nextHopVertices(ref: Reference, seed: Long): Seq[Int] = {
    val byDegree = (0 until ref.numVertices).sortBy(v => -ref.degree(v))
    val top = byDegree.take(3)
    val mixed = byDegree.drop(3).filter { v =>
      val d = ref.degree(v)
      val sizes = ref.radixGroupSizes(v).values
      d <= 2000 && sizes.exists(_ == 1) && sizes.exists(c => c > 1 && c * 10 < d)
    }
    top ++ new scala.util.Random(seed).shuffle(mixed).take(3)
  }

  /** Whether a walk of `len` vertices ending at `last` stopped early: a
    * fixed-length walk that is short (a dead end, or node2vec giving up
    * after 10,000 rejected tries), or a PPR walk that ended at a dead end.
    */
  def endedEarly(app: Walks.WalkApp, len: Int, last: Int, ref: Reference): Boolean = app match {
    case Walks.DeepWalk(length) => len < length
    case Walks.Node2vec(length, _, _) => len < length
    case _: Walks.Ppr | Walks.SimpleSampling => ref.degree(last) == 0
  }
}
