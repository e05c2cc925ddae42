package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.graph.{Edge, Update}

/** The batch's grouping: slices by `src % p`, runs by ascending `src`,
  * `ts` order inside a run, ties in listed order.
  */
class UpdateBatchSpec extends AnyFunSuite {

  private def entries(b: UpdateBatch): Seq[Update] =
    (0 until b.size).map(i => Update(b.ts(i), b.insert(i), b.src(i), b.dst(i), b.bias(i)))

  private def runs(b: UpdateBatch): Seq[(Int, Int, Int)] = {
    val out = Seq.newBuilder[(Int, Int, Int)]
    b.foreachRun((v, from, until) => out += ((v, from, until)))
    out.result()
  }

  test("split: slice s holds src % p == s, grouped by ascending src, in ts order with ties in listed order") {
    val rnd = new Random(3)
    val n = 50
    // ts with ties (k / 3), listed shuffled; a distinct bias per entry tells ties apart
    val listed = rnd.shuffle((0 until 400).toList).zipWithIndex.map { case (k, pos) =>
      Update(k / 3, rnd.nextBoolean(), rnd.nextInt(n), rnd.nextInt(n), 1.0 + pos)
    }
    for (p <- Seq(1, 3, 4, 64)) {
      val batches = UpdateBatch.split(listed, p, n)
      assert(batches.length == p)
      batches.zipWithIndex.foreach { case (b, s) =>
        assert(entries(b) == listed.filter(_.src % p == s).sortBy(_.ts).sortBy(_.src), s"p=$p slice $s")
        val rs = runs(b)
        assert(rs.map(_._1) == rs.map(_._1).distinct.sorted, s"p=$p slice $s: one run per src, ascending")
        assert(rs.map(r => r._3 - r._2).sum == b.size)
        rs.foreach { case (v, from, until) => assert((from until until).forall(b.src(_) == v)) }
      }
    }
  }

  test("snapshot: one insert per edge, grouped by src, listed order kept within a vertex") {
    val edges = Seq(Edge(2, 0, 1.0), Edge(0, 1, 2.0), Edge(2, 0, 3.0), Edge(1, 2, 4.0), Edge(0, 2, 5.0))
    val b = UpdateBatch.snapshot(edges, 3, 1)(0)
    assert((0 until b.size).forall(b.insert(_)))
    assert((0 until b.size).map(i => Edge(b.src(i), b.dst(i), b.bias(i))) == edges.sortBy(_.src))
    assert(runs(b) == Seq((0, 0, 2), (1, 2, 3), (2, 3, 5)))
    assert(UpdateBatch.snapshot(Nil, 0, 1)(0).size == 0)
  }

  test("snapshot in p slices equals split of the same edges as inserts, ts their listed index") {
    val rnd = new Random(7)
    val n = 40
    def edges(m: Int) = Vector.fill(m)(Edge(rnd.nextInt(n), rnd.nextInt(n), 1.0 + rnd.nextInt(9)))
    // lists shorter than some p or every p, the empty one, and one that is not an IndexedSeq
    val lists = Seq(Vector.empty[Edge], edges(1), edges(3), edges(63), edges(500), edges(97).toList)
    def check(listed: Seq[Edge], n: Int, p: Int): Unit = {
      val got = UpdateBatch.snapshot(listed, n, p)
      val want = UpdateBatch.split(listed.zipWithIndex.map { case (e, i) => Update(i, true, e.src, e.dst, e.bias) }, p, n)
      assert(got.length == p)
      got.zip(want).zipWithIndex.foreach { case ((g, w), s) =>
        assert(entries(g) == entries(w), s"${listed.length} edges, p=$p slice $s")
      }
    }
    for (listed <- lists; p <- Seq(1, 3, 4, 64)) check(listed, n, p)
    // p·n = 2^31: p chunks of p·⌈n/p⌉ counters each would overflow an Int
    val big = 1 << 20
    check(Vector.fill(20)(Edge(rnd.nextInt(big), rnd.nextInt(big), 1.0 + rnd.nextInt(9))), big, 2048)
  }

  test("applyTo hands each vertex its run once, as Update objects in ts order") {
    val seen = Seq.newBuilder[(Int, Seq[Update])]
    val recorder = new WalkEngine {
      def name = "recorder"
      def numVertices = 4
      def outDegree(v: Int) = 0
      def hasEdge(u: Int, v: Int) = false
      def applyVertexUpdates(src: Int, updates: Seq[Update]): Unit = seen += ((src, updates))
      def postRoundSlice(slice: Int, stride: Int): Unit = ()
      def sampleNext(u: Int, rng: java.util.SplittableRandom) = -1
      def memoryBytes = 0L
      def exactDistribution(u: Int) = Map.empty[Int, Double]
    }
    val round = Seq(
      Update(5, insert = false, 3, 1, 0.0),
      Update(2, insert = true, 1, 0, 2.0),
      Update(4, insert = true, 3, 1, 7.0),
      Update(1, insert = true, 3, 2, 1.0),
    )
    recorder.applyRoundLocal(round)
    assert(seen.result() == Seq(1 -> Seq(round(1)), 3 -> Seq(round(3), round(2), round(0))))
  }
}
