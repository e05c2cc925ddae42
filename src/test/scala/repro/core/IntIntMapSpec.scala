package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** The primitive open-addressing map behind the slot store's dst index and
  * the Sparse and decimal groups' inverted indexes.
  */
class IntIntMapSpec extends AnyFunSuite {

  test("get / put / remove against a reference map, with colliding keys") {
    val rnd = new Random(77)
    // keys sharing a home entry (and the next one) at every capacity up to 256
    val keys = (Iterator.from(0).filter(IntIntMap.homeEntry(_, 256) == 200).take(20) ++
      Iterator.from(0).filter(IntIntMap.homeEntry(_, 256) == 201).take(10) ++
      Iterator.fill(150)(rnd.nextInt(Int.MaxValue))).toVector.distinct
    val m = new IntIntMap
    var ref = Map.empty[Int, Int]
    (0 until 20000).foreach { i =>
      val k = keys(rnd.nextInt(keys.size))
      if (rnd.nextInt(3) == 0) {
        assert(m.remove(k) == ref.getOrElse(k, -1), s"op $i remove $k")
        ref -= k
      } else {
        val v = rnd.nextInt(1000)
        assert(m.put(k, v) == ref.getOrElse(k, -1), s"op $i put $k")
        ref = ref.updated(k, v)
      }
      assert(m.size == ref.size)
      if (i % 97 == 0) keys.foreach(x => assert(m.get(x) == ref.getOrElse(x, -1), s"op $i get $x"))
    }
    keys.foreach(x => assert(m.get(x) == ref.getOrElse(x, -1), s"end: get $x"))
  }

  test("capacity: nothing allocated while empty, doubles to keep load ≤ 0.5") {
    val m = new IntIntMap
    // only the map object is charged: the empty table is shared
    assert(m.capacity == 0 && m.memoryBytes == Heap.obj(Heap.Ref + 4) && m.get(3) == -1 && m.remove(3) == -1)
    (0 until 1000).foreach { k =>
      m.put(k * 7919, k)
      assert(m.capacity >= 2 * m.size)
      assert(Integer.bitCount(m.capacity) == 1)
    }
    assert(m.capacity == 2048)
    // overwriting an existing key never grows the table
    (0 until 1000).foreach(k => assert(m.put(k * 7919, k + 1) == k))
    assert(m.capacity == 2048 && m.size == 1000)
  }

  test("a map sized for n entries has the capacity n puts would double to") {
    val grown = new IntIntMap
    (1 to 600).foreach { n =>
      grown.put(n, n)
      val sized = new IntIntMap(n)
      assert(sized.capacity == grown.capacity, s"n = $n")
      (1 to n).foreach(k => sized.put(k, k))
      assert(sized.capacity == grown.capacity, s"n = $n, filled")
    }
  }

  test("rejects negative keys and values") {
    val m = new IntIntMap
    intercept[IllegalArgumentException](m.put(-1, 0))
    intercept[IllegalArgumentException](m.put(0, -1))
  }
}
