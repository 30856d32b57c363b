// Package jobs implements every example and assignment program the paper
// describes, as reusable Jobs that run unchanged on the standalone runner
// and the distributed cluster:
//
//   - WordCount, WordCount-with-combiner, and the "word with the highest
//     count" variant (Fall 2012 assignment 1);
//   - three average-airline-delay implementations — plain, combiner with
//     a custom value class, and in-mapper combining — the algorithmic
//     choices of Lin's "Monoidify!" lecture example;
//   - movie-genre statistics with a side-data join, in both the naive
//     (re-read the side file per record) and cached (read once in Setup)
//     forms whose order-of-magnitude runtime gap the assignment teaches;
//   - the most-active-user / favourite-genre job with a custom output
//     value class;
//   - the highest-average-album job over the music dataset (assignment 2);
//   - the Google-trace max-task-resubmissions job (Fall 2012 assignment 2).
package jobs

import (
	"encoding/binary"
	"fmt"
	"math"
)

// SumCount is the custom Writable value class of the airline assignment:
// a partial sum and count that make averaging associative, so it can flow
// through a combiner.
type SumCount struct {
	Sum   float64
	Count int64
}

// Add folds another partial aggregate into s.
func (s *SumCount) Add(o SumCount) {
	s.Sum += o.Sum
	s.Count += o.Count
}

// Avg returns the mean represented by the aggregate.
func (s SumCount) Avg() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// EncodeValue implements mapreduce.Value (16 bytes).
func (s SumCount) EncodeValue() []byte {
	var b [16]byte
	binary.BigEndian.PutUint64(b[0:], math.Float64bits(s.Sum))
	binary.BigEndian.PutUint64(b[8:], uint64(s.Count))
	return b[:]
}

// String implements mapreduce.Value.
func (s SumCount) String() string {
	return fmt.Sprintf("sum=%g count=%d avg=%.4f", s.Sum, s.Count, s.Avg())
}

// DecodeSumCount decodes a SumCount.
func DecodeSumCount(b []byte) (SumCount, error) {
	if len(b) != 16 {
		return SumCount{}, fmt.Errorf("jobs: SumCount wants 16 bytes, got %d", len(b))
	}
	return SumCount{
		Sum:   math.Float64frombits(binary.BigEndian.Uint64(b[0:])),
		Count: int64(binary.BigEndian.Uint64(b[8:])),
	}, nil
}

// Stats is a richer custom value for the movie assignment's descriptive
// statistics: sum, count, min and max in one Writable.
type Stats struct {
	Sum   float64
	Count int64
	Min   float64
	Max   float64
}

// NewStats returns the aggregate of a single observation.
func NewStats(v float64) Stats {
	return Stats{Sum: v, Count: 1, Min: v, Max: v}
}

// Add folds another aggregate into s.
func (s *Stats) Add(o Stats) {
	if o.Count == 0 {
		return
	}
	if s.Count == 0 {
		*s = o
		return
	}
	s.Sum += o.Sum
	s.Count += o.Count
	if o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
}

// Avg returns the mean.
func (s Stats) Avg() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// EncodeValue implements mapreduce.Value (32 bytes).
func (s Stats) EncodeValue() []byte {
	var b [32]byte
	binary.BigEndian.PutUint64(b[0:], math.Float64bits(s.Sum))
	binary.BigEndian.PutUint64(b[8:], uint64(s.Count))
	binary.BigEndian.PutUint64(b[16:], math.Float64bits(s.Min))
	binary.BigEndian.PutUint64(b[24:], math.Float64bits(s.Max))
	return b[:]
}

// String implements mapreduce.Value.
func (s Stats) String() string {
	return fmt.Sprintf("count=%d avg=%.4f min=%g max=%g", s.Count, s.Avg(), s.Min, s.Max)
}

// DecodeStats decodes a Stats value.
func DecodeStats(b []byte) (Stats, error) {
	if len(b) != 32 {
		return Stats{}, fmt.Errorf("jobs: Stats wants 32 bytes, got %d", len(b))
	}
	return Stats{
		Sum:   math.Float64frombits(binary.BigEndian.Uint64(b[0:])),
		Count: int64(binary.BigEndian.Uint64(b[8:])),
		Min:   math.Float64frombits(binary.BigEndian.Uint64(b[16:])),
		Max:   math.Float64frombits(binary.BigEndian.Uint64(b[24:])),
	}, nil
}

// UserStats is the custom output value class of the most-active-user
// question: "the information needed in the reduce step requires several
// values for each key".
type UserStats struct {
	Ratings  int64
	FavGenre string
}

// EncodeValue implements mapreduce.Value.
func (u UserStats) EncodeValue() []byte {
	b := make([]byte, 8+len(u.FavGenre))
	binary.BigEndian.PutUint64(b, uint64(u.Ratings))
	copy(b[8:], u.FavGenre)
	return b
}

// String implements mapreduce.Value.
func (u UserStats) String() string {
	return fmt.Sprintf("ratings=%d favorite=%s", u.Ratings, u.FavGenre)
}
