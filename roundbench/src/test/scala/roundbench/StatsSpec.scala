package roundbench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("median of odd and even counts") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5)
    assert(Stats.median(Seq(7.0)) == 7.0)
  }

  test("nearest-rank percentile") {
    val xs = (1 to 100).map(_.toDouble)
    assert(Stats.percentile(xs, 50) == 50.0)
    assert(Stats.percentile(xs, 90) == 90.0)
    assert(Stats.percentile(xs, 100) == 100.0)
    assert(Stats.percentile(Seq(5.0, 1.0, 3.0), 50) == 3.0)
    assert(Stats.percentile(Seq(5.0, 1.0, 3.0), 1) == 1.0)
  }

  test("beyond counts the samples above the percentile's rank") {
    assert(Stats.beyond(100, 90) == 10)
    assert(Stats.beyond(40, 75) == 10)
    assert(Stats.beyond(41, 76) == 9)
  }

  test("the tail is the highest percentile with ten samples beyond it") {
    def tailOf(n: Int) = Stats.tail((1 to n).map(_.toDouble))
    assert(tailOf(100) == Some((90.0, 90.0)))
    assert(tailOf(40) == Some((75.0, 30.0)))
    assert(tailOf(41) == Some((75.0, 31.0)))
    assert(tailOf(20) == Some((50.0, 10.0)))
    assert(tailOf(1000) == Some((99.0, 990.0)))
    assert(tailOf(19).isEmpty)
    tailOf(57).foreach { case (p, _) =>
      assert(Stats.beyond(57, p) >= 10 && Stats.beyond(57, p + 1) < 10)
    }
  }
}
