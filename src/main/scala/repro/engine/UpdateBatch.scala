package repro.engine

import scala.collection.immutable.ArraySeq
import repro.core.BingoVertex
import repro.graph.{Edge, Update}

/** Graph updates as primitive columns: the one form in which snapshot
  * builds, local rounds and Spark rounds reach an engine. Paper §5.2 groups
  * a round's updates by vertex, and each vertex applies its own in
  * timestamp order, so each vertex's updates form one run of the columns,
  * in `ts` order with ties kept in listed order; runs ascend by `src`.
  * Every entry is checked before any vertex changes: `src` and `dst` name
  * vertices of the engine, and an insert's bias is positive, finite and
  * below 2^63 (the range of Bingo's radix bias word).
  */
final class UpdateBatch private (val size: Int) extends Serializable {
  private[engine] val ts = new Array[Long](size)
  private[engine] val insert = new Array[Boolean](size)
  private[engine] val src = new Array[Int](size)
  private[engine] val dst = new Array[Int](size)
  private[engine] val bias = new Array[Double](size)

  private def set(i: Int, t: Long, in: Boolean, s: Int, d: Int, w: Double): Unit = {
    ts(i) = t; insert(i) = in; src(i) = s; dst(i) = d; bias(i) = w
  }

  /** Call `f(v, from, until)` for each vertex `v`'s run of the columns. */
  def foreachRun(f: (Int, Int, Int) => Unit): Unit = {
    var i = 0
    while (i < size) {
      var j = i + 1
      while (j < size && src(j) == src(i)) j += 1
      f(src(i), i, j)
      i = j
    }
  }

  /** Hand each vertex's run to [[WalkEngine.applyVertexUpdates]]. */
  def applyTo(eng: WalkEngine): Unit = foreachRun { (v, from, until) =>
    val us = ArraySeq.tabulate(until - from) { k => val i = from + k; Update(ts(i), insert(i), v, dst(i), bias(i)) }
    eng.applyVertexUpdates(v, us)
  }

  /** Check every entry, then regroup the listed entries into `p` batches:
    * batch `s` holds the runs of the vertices with `src % p == s`.
    */
  private def grouped(p: Int, n: Int, label: Int => String): Array[UpdateBatch] = {
    val q = (n + p - 1) / p
    def key(i: Int): Int = src(i) % p * q + src(i) / p // slice, then src
    val next = new Array[Int](p * q + 1) // counting sort: run starts by key
    for (i <- 0 until size) {
      require(src(i) >= 0, s"${label(i)} has a negative src")
      require(dst(i) >= 0, s"${label(i)} has a negative dst")
      require(src(i) < n && dst(i) < n, s"${label(i)} names a vertex outside the engine's $n vertices")
      val finite = bias(i) > 0.0 && bias(i) <= Double.MaxValue
      require(!insert(i) || finite, s"${label(i)} has a bias that is not positive and finite")
      require(!insert(i) || bias(i) < BingoVertex.TwoPow63, s"${label(i)} has a bias of 2^63 or more")
      next(key(i) + 1) += 1
    }
    for (k <- 1 to p * q) next(k) += next(k - 1)
    val base = Array.tabulate(p + 1)(s => next(s * q))
    val out = Array.tabulate(p)(s => new UpdateBatch(base(s + 1) - base(s)))
    val listed = Array.range(0, size)
    val inOrder = java.util.stream.IntStream.range(1, size).allMatch(i => ts(i - 1) <= ts(i)) // unboxed, as below
    java.util.Arrays.stream(if (inOrder) listed else listed.sortBy(ts(_))).forEach { i =>
      out(src(i) % p).set(next(key(i)) - base(src(i) % p), ts(i), insert(i), src(i), dst(i), bias(i))
      next(key(i)) += 1
    }
    out
  }
}

object UpdateBatch {
  /** A round's updates for an engine of `n` vertices as `p` slice batches:
    * batch `s` holds the updates with `src % p == s`.
    */
  def split(updates: Seq[Update], p: Int, n: Int): Array[UpdateBatch] = {
    val b = new UpdateBatch(updates.length)
    var i = 0
    for (u <- updates) { b.set(i, u.ts, u.insert, u.src, u.dst, u.bias); i += 1 }
    b.grouped(p, n, i => s"update ${Update(b.ts(i), b.insert(i), b.src(i), b.dst(i), b.bias(i))}")
  }

  /** A snapshot as one batch of inserts, `ts` its listed order. */
  def snapshot(edges: Seq[Edge], n: Int): UpdateBatch = {
    val b = new UpdateBatch(edges.length)
    var i = 0
    for (e <- edges) { b.set(i, i, true, e.src, e.dst, e.bias); i += 1 }
    b.grouped(1, n, i => s"snapshot edge ${Edge(b.src(i), b.dst(i), b.bias(i))}")(0)
  }
}
