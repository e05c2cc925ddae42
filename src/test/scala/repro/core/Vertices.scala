package repro.core

/** Test helpers over [[BingoVertex]]: a vertex built from a neighbor list,
  * the exact probabilities its group structure gives, and those read off its
  * slots' bias columns.
  */
object Vertices {

  /** A vertex holding `neighbors` as (dst, bias), inserted as one batch. */
  def build(neighbors: Seq[(Int, Double)], adaptive: Boolean = true): BingoVertex = {
    val v = new BingoVertex(adaptive = adaptive)
    Batch(v, neighbors, Nil)
    v
  }

  /** Weight of a slot: its integer part plus its decimal. */
  private def weight(v: BingoVertex, slot: Int): Double = v.scaledIntBiasAt(slot).toDouble + v.decimalAt(slot)

  /** Total mass Σw over the slots: the sampling normaliser. */
  def totalMass(v: BingoVertex): Double = (0 until v.degree).map(weight(v, _)).sum

  /** The probability that `v`'s structure gives `dst`, read off
    * [[BingoVertex.distribution]] (Eq. 7); 0 for a dst it does not hold.
    */
  def structProbabilityOf(v: BingoVertex, dst: Int): Double = v.distribution.getOrElse(dst, 0.0)

  /** Expected probability w/Σw of picking any instance of `dst` (Eq. 2). */
  def expectedProbabilityOf(v: BingoVertex, dst: Int): Double = {
    val w = (0 until v.degree).filter(v.dstAt(_) == dst).map(weight(v, _)).sum
    if (w == 0) 0.0 else w / totalMass(v)
  }
}
