package repro.core

/** Test shorthand for the [[BingoVertex.applyBatch]] kernel: `inserts` and
  * then `deletes`, laid out as its `dst` / `bias` / `insert` columns.
  */
object Batch {
  def apply(v: BingoVertex, inserts: Seq[(Int, Double)], deletes: Seq[Int]): Int = {
    val dst = (inserts.map(_._1) ++ deletes).toArray
    val bias = (inserts.map(_._2) ++ deletes.map(_ => 0.0)).toArray
    v.applyBatch(dst, bias, Array.tabulate(dst.length)(_ < inserts.size), 0, dst.length)
  }
}
