package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

/** The paper's 3-step A/B update-stream protocol (§6.1): invariants per
  * mode, plus a DuckDB oracle check that the final edge set after a stream
  * equals the relational inserts-minus-deletes computation.
  */
class UpdateGenSpec extends AnyFunSuite with SparkSpec {

  private lazy val graph = GraphGen.generate(GraphGen.AM)
  private val Batch = 200
  private val Rounds = 5

  private def mkPlan(mode: UpdateMode, seed: Long = 3L) =
    UpdateGen.plan(graph.edges, mode, Batch, Rounds, seed)

  test("plan shape: rounds x batchSize, initial = |E| - rounds*batch") {
    UpdateMode.All.foreach { mode =>
      val p = mkPlan(mode)
      assert(p.rounds.size == Rounds)
      p.rounds.foreach(r => assert(r.size == Batch))
      assert(p.initialEdges.size == graph.edges.size - Rounds * Batch)
      assert(Plans.allUpdates(p).map(_.ts) == Plans.allUpdates(p).indices.map(_.toLong))
    }
  }

  test("plan is deterministic in the seed") {
    assert(mkPlan(UpdateMode.Mixed, 5L) == mkPlan(UpdateMode.Mixed, 5L))
    assert(mkPlan(UpdateMode.Mixed, 5L) != mkPlan(UpdateMode.Mixed, 6L))
  }

  test("insertion mode only inserts, from set B") {
    val p = mkPlan(UpdateMode.Insertion)
    assert(Plans.allUpdates(p).forall(_.insert))
    val initialSet = p.initialEdges.map(e => (e.src, e.dst)).toSet
    Plans.allUpdates(p).foreach(u => assert(!initialSet.contains((u.src, u.dst)), "insert must come from B"))
    // all B edges distinct
    assert(Plans.allUpdates(p).map(u => (u.src, u.dst)).distinct.size == Plans.allUpdates(p).size)
  }

  test("deletion mode only deletes, and only live edges") {
    val p = mkPlan(UpdateMode.Deletion)
    assert(Plans.allUpdates(p).forall(!_.insert))
    // sequential replay never deletes an absent edge (enforced inside)
    val fin = Plans.edgeMultisetAfter(p, Rounds)
    assert(fin.values.sum == p.initialEdges.size - Rounds * Batch)
  }

  test("mixed mode has both kinds and preserves validity") {
    val p = mkPlan(UpdateMode.Mixed)
    assert(Plans.allUpdates(p).exists(_.insert))
    assert(Plans.allUpdates(p).exists(!_.insert))
    val fin = Plans.edgeMultisetAfter(p, Rounds) // would throw on an invalid delete
    val ins = Plans.allUpdates(p).count(_.insert)
    val del = Rounds * Batch - ins
    assert(fin.values.sum == p.initialEdges.size + ins - del)
  }

  test("ground-truth multiset after each round is consistent") {
    val p = mkPlan(UpdateMode.Mixed)
    (0 to Rounds).foreach { k =>
      val m = Plans.edgeMultisetAfter(p, k)
      assert(m.values.forall(_ > 0))
    }
  }

  test("graph too small for the protocol is rejected") {
    intercept[IllegalArgumentException] {
      UpdateGen.plan(graph.edges.take(100), UpdateMode.Mixed, 100, 10, 1L)
    }
  }

  for (mode <- UpdateMode.All) {
    test(s"oracle: final edge set after ${mode.label} stream matches DuckDB inserts-minus-deletes") {
      val p = mkPlan(mode)
      // Spark side: final multiset computed relationally from initial + updates
      val spark2 = spark
      import spark2.implicits._
      val initDF = p.initialEdges.toDF()
      val updDF = Plans.allUpdates(p).toDF().withColumnRenamed("insert", "is_insert")
      val sparkFinal = initDF
        .select($"src", $"dst", $"bias", lit(1L).as("delta"))
        .unionAll(updDF.select($"src", $"dst", $"bias", when($"is_insert", 1L).otherwise(-1L).as("delta")))
        .groupBy("src", "dst", "bias")
        .agg(sum("delta").as("cnt"))
        .where($"cnt" > 0)
      Oracle.assertEquivalent(
        sparkFinal,
        """
          |SELECT src, dst, CAST(bias AS DOUBLE) AS bias, SUM(delta) AS cnt FROM (
          |  SELECT src, dst, bias, 1 AS delta FROM initial
          |  UNION ALL
          |  SELECT src, dst, bias, CASE WHEN is_insert = 'true' THEN 1 ELSE -1 END AS delta FROM updates
          |) GROUP BY src, dst, bias HAVING SUM(delta) > 0
          |""".stripMargin,
        "initial" -> initDF,
        "updates" -> updDF,
      )
      // and the relational result equals the sequential ground truth
      val seq = Plans.edgeMultisetAfter(p, Rounds)
      val rel = sparkFinal
        .collect()
        .map(r => (r.getAs[Int]("src"), r.getAs[Int]("dst"), r.getAs[Double]("bias")) -> r.getAs[Long]("cnt").toInt)
        .toMap
      assert(rel == seq)
    }
  }
}
