package experiments

import (
	"fmt"

	"repro/internal/curriculum"
	"repro/internal/survey"
)

// Table1 regenerates the paper's Table I (proficiency before/after):
// each published mean±SD beside that of a cohort synthesized to it.
func Table1(seed int64) (*Result, error) {
	r := &Result{
		ID:     "T1",
		Title:  fmt.Sprintf("Level of Proficiency (0 to 10), n=%d, published vs synthesized cohort", survey.Respondents),
		Header: []string{"Topic", "Before (paper)", "Before (synth)", "After (paper)", "After (synth)"},
		Raw:    survey.TableI,
		Notes: []string{
			"survey data cannot be re-run; cohorts are synthesized to the published moments (see DESIGN.md §4)",
		},
	}
	for i, row := range survey.TableI {
		before := survey.Synthesize(row.BeforeMean, row.BeforeSD, 0, 10, int64(100+i))
		after := survey.Synthesize(row.AfterMean, row.AfterSD, 0, 10, int64(200+i))
		r.Rows = append(r.Rows, []string{row.Topic,
			meanSD(row.BeforeMean, row.BeforeSD), meanSD(before.Mean, before.SD),
			meanSD(row.AfterMean, row.AfterSD), meanSD(after.Mean, after.SD)})
	}
	return r, nil
}

// Table2 regenerates Table II (time to complete).
func Table2(seed int64) (*Result, error) {
	return rated("T2", "Time to Complete (1: <30m, 2: 30m-2h, 3: 2h-4h, 4: >4h)", survey.TableII, 300), nil
}

// Table3 regenerates Table III (helpfulness).
func Table3(seed int64) (*Result, error) {
	return rated("T3", "Helpfulness of Lectures and Tutorials (1: not useful ... 4: very useful)", survey.TableIII, 400), nil
}

// rated builds Table II or III, whose rows are rated on a 1–4 scale:
// each published mean±SD beside that of a cohort synthesized to it.
func rated(id, title string, rows []survey.RatedRow, seedBase int64) *Result {
	r := &Result{
		ID:     id,
		Title:  fmt.Sprintf("%s, n=%d", title, survey.Respondents),
		Header: []string{"Item", "Paper", "Synthesized"},
		Raw:    rows,
	}
	for i, row := range rows {
		s := survey.Synthesize(row.Mean, row.SD, 1, 4, seedBase+int64(i))
		r.Rows = append(r.Rows, []string{row.Label, meanSD(row.Mean, row.SD), meanSD(s.Mean, s.SD)})
	}
	return r
}

func meanSD(mean, sd float64) string { return fmt.Sprintf("%.2f±%.2f", mean, sd) }

// Table4 regenerates Table IV (lowest level to teach).
func Table4(seed int64) (*Result, error) {
	r := &Result{
		ID:     "T4",
		Title:  "Lowest level of CS course to introduce Hadoop MapReduce",
		Header: []string{"Year", "Survey Counts"},
		Raw:    survey.TableIV,
	}
	total := 0
	for _, row := range survey.TableIV {
		r.Rows = append(r.Rows, []string{row.Level, fmt.Sprint(row.Count)})
		total += row.Count
	}
	r.Rows = append(r.Rows, []string{"Total", fmt.Sprintf("%d (of %d enrolled)", total, survey.ClassSize)})
	return r, nil
}

// Table5 regenerates Table V (curriculum mapping), each outcome linked to
// the module of this reproduction that demonstrates it.
func Table5(seed int64) (*Result, error) {
	return &Result{
		ID:    "T5",
		Title: "PDC learning outcomes",
		Text:  curriculum.Render(),
		Raw:   curriculum.TableV,
	}, nil
}
