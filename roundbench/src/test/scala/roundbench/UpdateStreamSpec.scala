package roundbench

import repro.graph.{Edge, GraphGen}

class UpdateStreamSpec extends org.scalatest.funsuite.AnyFunSuite {

  private val edges = GraphGen.generate(GraphGen.AM).edges

  test("replaying the stream over the initial snapshot gives its live edge set") {
    val stream = new UpdateStream(edges, 500, seed = 3)
    val live = scala.collection.mutable.Set[(Int, Int)]() ++ stream.initialEdges.map(e => (e.src, e.dst))
    assert(live.size == edges.length - 500)
    var inserts = 0
    var nextTs = 0L
    (1 to 30).foreach { _ =>
      stream.nextBatch(1000).foreach { u =>
        assert(u.ts == nextTs)
        nextTs += 1
        val k = (u.src, u.dst)
        if (u.insert) { assert(!live(k), s"insert of live edge $k"); live += k; inserts += 1 }
        else { assert(live(k), s"delete of absent edge $k"); live -= k }
      }
      assert(stream.liveEdges.map(e => (e.src, e.dst)).toSet == live)
      val pool = stream.poolEdges.map(e => (e.src, e.dst)).toSet
      assert(pool.intersect(live).isEmpty)
      assert(pool.size + live.size == edges.length)
    }
    // 30,000 events from a 500-edge pool: deleted edges were re-inserted
    assert(inserts > 14000 && inserts < 16000, s"$inserts inserts of 30000 Mixed events")
  }

  test("biases travel with their edges") {
    val byKey = edges.map(e => (e.src, e.dst) -> e.bias).toMap
    val stream = new UpdateStream(edges, 100, seed = 4)
    (1 to 5).foreach(_ => stream.nextBatch(2000).foreach(u => assert(byKey((u.src, u.dst)) == u.bias)))
  }

  test("the same seed gives the same stream; another seed another") {
    def batches(seed: Long) = { val s = new UpdateStream(edges, 200, seed); (s.initialEdges, Seq.fill(3)(s.nextBatch(500))) }
    assert(batches(9) == batches(9))
    assert(batches(9) != batches(10))
  }

  test("the stream never deletes from an empty graph or inserts from an empty pool") {
    val tiny = Vector(Edge(0, 1, 1), Edge(1, 0, 2), Edge(0, 2, 3))
    val stream = new UpdateStream(tiny, 1, seed = 5)
    val ref = new Reference(3, stream.initialEdges)
    (1 to 50).foreach(_ => stream.nextBatch(7).foreach(ref.apply)) // Reference rejects absent deletes
    assert(stream.liveEdges.length + stream.poolEdges.length == 3)
  }
}
