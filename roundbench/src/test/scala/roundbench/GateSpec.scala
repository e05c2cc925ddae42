package roundbench

import java.util.SplittableRandom
import repro.engine.{BingoEngine, WalkEngine}
import repro.graph.{Edge, GraphGen, Update}
import repro.walk.Walks

class GateSpec extends org.scalatest.funsuite.AnyFunSuite {

  private val edges = GraphGen.generate(GraphGen.AM).edges
  private val n = GraphGen.AM.nVertices

  /** Build Bingo from a stream's snapshot and replay `rounds` batches into it and a reference. */
  private def setup(rounds: Int): (UpdateStream, Reference, WalkEngine) = {
    val stream = new UpdateStream(edges, 1000, seed = 1)
    val ref = new Reference(n, stream.initialEdges)
    val eng = BingoEngine.factory().build(n, stream.initialEdges)
    (1 to rounds).foreach { _ => val b = stream.nextBatch(1000); b.foreach(ref.apply); eng.applyRoundLocal(b) }
    (stream, ref, eng)
  }

  test("a correct engine passes every check") {
    val (stream, ref, eng) = setup(5)
    val gate = new Gate
    gate.checkGraph(eng, ref, stream.poolEdges)
    (0L until 64L).foreach { wid =>
      gate.checkWalk(Walks.walkPath(eng, Walks.DeepWalk(40), (wid % n).toInt, Walks.walkerRng(7, wid)), Walks.DeepWalk(40), ref)
    }
    gate.checkNextHop(eng, ref, Gate.nextHopVertices(ref, seed = 3), seed = 2)
    assert(gate.failed == 0, gate.messages.mkString("\n"))
    assert(gate.attempted > n)
  }

  test("an engine that drops deletes fails the graph check") {
    val stream = new UpdateStream(edges, 1000, seed = 1)
    val ref = new Reference(n, stream.initialEdges)
    val eng = BingoEngine.factory().build(n, stream.initialEdges)
    (1 to 3).foreach { _ =>
      val b = stream.nextBatch(1000)
      b.foreach(ref.apply)
      eng.applyRoundLocal(b.filter(_.insert))
    }
    val gate = new Gate
    gate.checkGraph(eng, ref, stream.poolEdges)
    assert(gate.failed > 0)
  }

  // Google-lite: its hubs have skewed degree biases and its mid-degree
  // vertices hold sparse and one-element radix groups
  private lazy val go = {
    val edges = GraphGen.generate(GraphGen.GO).edges
    val ref = new Reference(GraphGen.GO.nVertices, edges)
    (ref, BingoEngine.factory().build(GraphGen.GO.nVertices, edges), Gate.nextHopVertices(ref, seed = 3))
  }

  /** An engine whose next hop from u is drawn from `dist(u)`. */
  private def sampling(eng: WalkEngine, dist: Int => Map[Int, Double]): WalkEngine = new Forwarding(eng) {
    private val tables = scala.collection.mutable.Map[Int, (Array[Int], Array[Double])]()
    override def sampleNext(u: Int, rng: SplittableRandom): Int = {
      val (vs, cum) = tables.getOrElseUpdate(u, {
        val p = dist(u).toArray.sortBy(_._1)
        (p.map(_._1), p.map(_._2).scanLeft(0.0)(_ + _).tail)
      })
      val i = java.util.Arrays.binarySearch(cum, rng.nextDouble() * cum.last)
      vs(math.min(vs.length - 1, if (i >= 0) i + 1 else -i - 1))
    }
  }

  /** The reference distribution with radix group k of vertex u weighted by `factor(u, k)`. */
  private def reweighted(ref: Reference, factor: (Int, Int) => Double)(u: Int): Map[Int, Double] = {
    val w = ref.distribution(u).map { case (v, p) =>
      val b = ref.bias(u, v)
      v -> p * Reference.bits(b).map(k => math.pow(2, k) * factor(u, k)).sum / b
    }
    w.map { case (v, x) => v -> x / w.values.sum }
  }

  for ((what, dist) <- Seq[(String, Reference => Int => Map[Int, Double])](
      "samples exactly" -> (ref => ref.distribution),
      "ignores biases" -> (ref => u => ref.distribution(u).map { case (v, _) => v -> 1.0 / ref.distribution(u).size }),
      "weights radix group 1 ×1.5" -> (ref => reweighted(ref, (_, k) => if (k == 1) 1.5 else 1.0)),
      "weights one-element groups ×1.5" -> (ref => reweighted(ref, (u, k) => if (ref.radixGroupSizes(u)(k) == 1) 1.5 else 1.0)),
      "weights sparse groups ×1.5" -> { ref =>
        reweighted(ref, { (u, k) =>
          val c = ref.radixGroupSizes(u)(k)
          if (c > 1 && c * 10 < ref.degree(u)) 1.5 else 1.0
        })
      },
    )) test(s"an engine that $what fails the next-hop check wherever that moves 1% of the mass") {
    val (ref, eng, vs) = go
    assert(vs.length == 6)
    val engine = sampling(eng, dist(ref))
    val errors = vs.map { u =>
      val (want, got) = (ref.distribution(u), dist(ref)(u))
      val tv = want.map { case (v, p) => math.abs(got.getOrElse(v, 0.0) - p) }.sum / 2
      val gate = new Gate
      gate.checkNextHop(engine, ref, Seq(u), seed = 2)
      if (tv >= 0.01) assert(gate.failed == 1, s"an error of TV $tv at $u is not caught")
      if (tv < 1e-9) assert(gate.failed == 0, gate.messages.mkString("\n"))
      tv
    }
    if (what != "samples exactly") assert(errors.count(_ >= 0.01) >= 3, errors)
  }

  test("a walk through a non-edge or stopping at a live vertex fails") {
    val ref = new Reference(3, Seq(Edge(0, 1, 1), Edge(1, 2, 1), Edge(2, 0, 1)))
    val gate = new Gate
    assert(!gate.checkWalk(Array(0, 1, 2, 0), Walks.DeepWalk(4), ref))
    assert(gate.failed == 0)
    gate.checkWalk(Array(0, 2), Walks.DeepWalk(2), ref)
    assert(gate.failed == 1)
    assert(gate.checkWalk(Array(0, 1), Walks.DeepWalk(4), ref))
    assert(gate.failed == 2)
    ref.apply(Update(0, insert = false, 1, 2, 1))
    assert(gate.checkWalk(Array(0, 1), Walks.DeepWalk(4), ref)) // vertex 1 is now a dead end
    assert(gate.failed == 2)
  }
}

/** A [[WalkEngine]] that forwards every call, for overriding one. */
class Forwarding(inner: WalkEngine) extends WalkEngine {
  def name: String = inner.name
  def numVertices: Int = inner.numVertices
  def outDegree(v: Int): Int = inner.outDegree(v)
  def hasEdge(u: Int, v: Int): Boolean = inner.hasEdge(u, v)
  def applyVertexUpdates(src: Int, updates: Seq[Update]): Unit = inner.applyVertexUpdates(src, updates)
  def postRoundSlice(slice: Int, stride: Int): Unit = inner.postRoundSlice(slice, stride)
  def sampleNext(u: Int, rng: SplittableRandom): Int = inner.sampleNext(u, rng)
  def memoryBytes: Long = inner.memoryBytes
  def exactDistribution(u: Int): Map[Int, Double] = inner.exactDistribution(u)
}
