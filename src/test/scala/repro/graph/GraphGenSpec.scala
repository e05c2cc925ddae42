package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

/** Synthetic dataset generators: determinism, shape targets, Spark/DuckDB
  * agreement on the relational statistics that feed Table 2.
  */
class GraphGenSpec extends AnyFunSuite with SparkSpec {

  // generate once per suite; the -lite graphs are small
  private lazy val graphs = GraphGen.All.map(s => s.abbr -> GraphGen.generate(s)).toMap

  test("generation is deterministic") {
    val a = GraphGen.generate(GraphGen.AM).edges
    val b = GraphGen.generate(GraphGen.AM).edges
    assert(a == b)
  }

  test("degree sequence sums approximately to the edge target") {
    GraphGen.All.foreach { spec =>
      val total = GraphGen.degreeSequence(spec).map(_.toLong).sum
      assert(
        math.abs(total - spec.targetEdges) < spec.targetEdges * 0.2,
        s"${spec.abbr}: degree sum $total vs target ${spec.targetEdges}",
      )
    }
  }

  for (spec <- GraphGen.All) {
    test(s"${spec.abbr}: vertex ids in range, no self loops, no duplicate (src,dst)") {
      val es = graphs(spec.abbr).edges
      es.foreach { e =>
        assert(e.src >= 0 && e.src < spec.nVertices)
        assert(e.dst >= 0 && e.dst < spec.nVertices)
        assert(e.src != e.dst)
        assert(e.bias >= 1.0)
      }
      assert(es.map(e => (e.src, e.dst)).distinct.size == es.size)
    }

    test(s"${spec.abbr}: edge count near target and max out-degree within cap") {
      val es = graphs(spec.abbr).edges
      assert(es.size > spec.targetEdges * 0.75, s"only ${es.size} of ${spec.targetEdges}")
      val maxOut = es.groupBy(_.src).map(_._2.size).max
      assert(maxOut <= spec.maxDegree)
      assert(maxOut > spec.maxDegree / 2, s"max degree $maxOut too far below cap ${spec.maxDegree}")
    }

    test(s"${spec.abbr}: bias equals generator out-degree of the destination") {
      val degs = GraphGen.degreeSequence(spec)
      graphs(spec.abbr).edges.take(2000).foreach(e => assert(e.bias == degs(e.dst).toDouble))
    }
  }

  test("average-degree ordering matches the paper (CT < GO < AM < LJ < TW)") {
    val avg = GraphGen.All.map(s => s.abbr -> graphs(s.abbr).edges.size.toDouble / s.nVertices).toMap
    assert(avg("CT") < avg("GO"))
    assert(avg("GO") < avg("AM"))
    assert(avg("AM") < avg("LJ"))
    assert(avg("LJ") < avg("TW"))
  }

  test("max-degree ordering matches the paper (AM << GO < CT < LJ < TW)") {
    def maxOut(a: String) = graphs(a).edges.groupBy(_.src).map(_._2.size).max
    assert(maxOut("AM") < maxOut("GO"))
    assert(maxOut("GO") < maxOut("CT"))
    assert(maxOut("CT") < maxOut("LJ"))
    assert(maxOut("LJ") < maxOut("TW"))
  }

  test("Spark degree stats match DuckDB (Table 2 plumbing)") {
    val df = graphs("AM").toDF(spark)
    val sparkStats = df
      .groupBy("src")
      .agg(count(lit(1)).as("deg"))
      .agg(max("deg").as("max_deg"), count(lit(1)).as("n_src"))
    Oracle.assertEquivalent(
      sparkStats,
      "SELECT MAX(deg) AS max_deg, COUNT(*) AS n_src FROM " +
        "(SELECT src, COUNT(*) AS deg FROM edges GROUP BY src)",
      "edges" -> df,
    )
  }

  test("Spark bias histogram matches DuckDB") {
    val df = graphs("GO").toDF(spark)
    val hist = df.groupBy("bias").agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(
      hist,
      "SELECT CAST(bias AS DOUBLE) AS bias, COUNT(*) AS cnt FROM edges GROUP BY bias",
      "edges" -> df,
    )
  }

  test("bias variants preserve edge structure") {
    val g = graphs("AM")
    val f = FloatBias.withFloatBias(g)
    assert(f.edges.map(e => (e.src, e.dst)) == g.edges.map(e => (e.src, e.dst)))
    f.edges.zip(g.edges).foreach { case (fe, ge) =>
      assert(fe.bias >= ge.bias && fe.bias < ge.bias + 1.0)
    }
  }

  /** The paper's running example (Fig. 1/4): vertex 2 has neighbors 1, 4,
    * 5 with biases 5, 4, 3.
    */
  private val runningExample: Vector[Edge] = Vector(
    Edge(2, 1, 5), Edge(2, 4, 4), Edge(2, 5, 3),
    Edge(1, 2, 2), Edge(4, 2, 1), Edge(5, 2, 1), Edge(3, 2, 1),
  )

  test("running example matches paper Fig. 1/4") {
    val ex = runningExample
    val v2 = ex.filter(_.src == 2)
    assert(v2.map(e => (e.dst, e.bias)).toSet == Set((1, 5.0), (4, 4.0), (5, 3.0)))
  }
}
