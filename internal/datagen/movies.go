package datagen

import (
	"bufio"
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/vfs"
)

// Genres are the MovieLens genre labels.
var Genres = []string{
	"Action", "Adventure", "Animation", "Children", "Comedy", "Crime",
	"Documentary", "Drama", "Fantasy", "Film-Noir", "Horror", "Musical",
	"Mystery", "Romance", "Sci-Fi", "Thriller", "War", "Western",
}

// MovieOpts sizes the movie-rating generator.
type MovieOpts struct {
	Movies  int
	Users   int
	Ratings int
	Seed    int64
}

// MovieTruth is the ground truth for the first assignment: descriptive
// statistics per genre, plus the most-active user and their favourite
// genre.
type MovieTruth struct {
	GenreSum     map[string]float64
	GenreCount   map[string]int64
	UserRatings  map[int]int64
	TopUser      int
	TopUserCount int64
	FavGenre     string
	MovieGenres  map[int][]string
}

// Movies writes movies.dat ("MovieID::Title::Genre|Genre") and
// ratings.dat ("UserID::MovieID::Rating::Timestamp") in MovieLens 10M
// format and returns the truth. movies.dat is the side file whose access
// pattern the assignment's optimisation lesson is about.
func Movies(fs vfs.FileSystem, dir string, opts MovieOpts) (*MovieTruth, int64, error) {
	if opts.Movies <= 0 {
		opts.Movies = 200
	}
	if opts.Users <= 0 {
		opts.Users = 500
	}
	if opts.Ratings <= 0 {
		opts.Ratings = 20000
	}
	rng := sim.NewRand(opts.Seed).Derive("movies")
	truth := &MovieTruth{
		GenreSum:    map[string]float64{},
		GenreCount:  map[string]int64{},
		UserRatings: map[int]int64{},
		MovieGenres: map[int][]string{},
	}
	// Assign 1–3 genres per movie.
	for m := 1; m <= opts.Movies; m++ {
		k := 1 + rng.Intn(3)
		seen := map[string]bool{}
		for len(seen) < k {
			seen[Genres[rng.Intn(len(Genres))]] = true
		}
		var gs []string
		for _, g := range Genres { // canonical order
			if seen[g] {
				gs = append(gs, g)
			}
		}
		truth.MovieGenres[m] = gs
	}
	nMovies, err := writeLines(fs, vfs.Join(dir, "movies.dat"), func(w *bufio.Writer) error {
		for m := 1; m <= opts.Movies; m++ {
			year := 1950 + rng.Intn(60)
			if _, err := fmt.Fprintf(w, "%d::Movie %04d (%d)::%s\n",
				m, m, year, strings.Join(truth.MovieGenres[m], "|")); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, nMovies, err
	}
	// Zipf user activity and movie popularity: one user clearly rates most.
	userZipf := rng.Zipf(1.3, uint64(opts.Users))
	movieZipf := rng.Zipf(1.15, uint64(opts.Movies))
	// Per-user genre taste: each user favours one genre cluster.
	userFav := make([]string, opts.Users+1)
	for u := 1; u <= opts.Users; u++ {
		userFav[u] = Genres[rng.Intn(len(Genres))]
	}
	userGenreCount := map[int]map[string]int64{}
	nRatings, err := writeLines(fs, vfs.Join(dir, "ratings.dat"), func(w *bufio.Writer) error {
		for i := 0; i < opts.Ratings; i++ {
			u := int(userZipf.Uint64()) + 1
			m := int(movieZipf.Uint64()) + 1
			// Bias movie choice toward the user's favourite genre.
			if rng.Bernoulli(0.3) {
				for try := 0; try < 4; try++ {
					cand := int(movieZipf.Uint64()) + 1
					match := false
					for _, g := range truth.MovieGenres[cand] {
						if g == userFav[u] {
							match = true
						}
					}
					if match {
						m = cand
						break
					}
				}
			}
			rating := 1 + rng.Intn(5)
			ts := 789652000 + rng.Intn(300000000)
			if _, err := fmt.Fprintf(w, "%d::%d::%d::%d\n", u, m, rating, ts); err != nil {
				return err
			}
			truth.UserRatings[u]++
			if userGenreCount[u] == nil {
				userGenreCount[u] = map[string]int64{}
			}
			for _, g := range truth.MovieGenres[m] {
				truth.GenreSum[g] += float64(rating)
				truth.GenreCount[g]++
				userGenreCount[u][g]++
			}
		}
		return nil
	})
	if err != nil {
		return nil, nMovies + nRatings, err
	}
	for u, c := range truth.UserRatings {
		if c > truth.TopUserCount || (c == truth.TopUserCount && u < truth.TopUser) {
			truth.TopUser, truth.TopUserCount = u, c
		}
	}
	var fav string
	var favN int64 = -1
	for _, g := range Genres {
		if n := userGenreCount[truth.TopUser][g]; n > favN {
			fav, favN = g, n
		}
	}
	truth.FavGenre = fav
	return truth, nMovies + nRatings, nil
}
