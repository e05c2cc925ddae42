package repro.graph

/** Test views of an [[UpdateGen.Plan]]: its whole update stream and the
  * ground-truth edge multiset after some of its rounds.
  */
object Plans {
  def allUpdates(plan: UpdateGen.Plan): Vector[Update] = plan.rounds.flatten

  /** Ground-truth edge multiset after applying `k` rounds sequentially. */
  def edgeMultisetAfter(plan: UpdateGen.Plan, k: Int): Map[(Int, Int, Double), Int] = {
    val counts = new java.util.HashMap[(Int, Int, Double), Int]()
    plan.initialEdges.foreach(e => counts.merge((e.src, e.dst, e.bias), 1, (a: Int, b: Int) => a + b))
    plan.rounds.take(k).flatten.foreach { u =>
      // deletions match on (src,dst) only — earliest surviving instance;
      // our protocol never re-inserts the same (src,dst) with a different
      // bias, so keying deletes by the recorded bias is exact.
      val key = (u.src, u.dst, u.bias)
      if (u.insert) counts.merge(key, 1, (a: Int, b: Int) => a + b)
      else {
        val c = counts.getOrDefault(key, 0)
        require(c > 0, s"protocol bug: delete of absent edge $key")
        if (c == 1) counts.remove(key) else counts.put(key, c - 1)
      }
    }
    import scala.jdk.CollectionConverters._
    counts.asScala.toMap
  }
}
