package main

import (
	"fmt"
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), NaN for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, NaN for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile describes the highest standard percentile of xs with at
// least ten samples beyond it, or says that the sample count supports
// none above the median. For a rate (unit 1/s) the slow tail is the low
// end, so it reports the mirrored low percentile of the rates.
func tailPercentile(xs []float64, unit string) string {
	for _, p := range []float64{99.9, 99, 95, 90, 75} {
		if float64(len(xs))*(1-p/100) >= 10 {
			if unit == "1/s" {
				return fmt.Sprintf("slow-tail p%g=%.6g %s", 100-p, quantile(xs, 1-p/100), unit)
			}
			return fmt.Sprintf("p%g=%.6g %s", p, quantile(xs, p/100), unit)
		}
	}
	return "no tail percentile (fewer than 40 samples)"
}

// mean returns the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
