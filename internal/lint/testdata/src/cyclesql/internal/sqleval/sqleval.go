// Package sqleval stubs the executor's owned results for the released
// fixtures.
package sqleval

type Row []int

type Relation struct{ Rows []Row }

type Result struct{ Rel *Relation }

func (r *Result) Release() {}

type Executor struct{}

func (ex *Executor) Run(q string) (Result, error) { return Result{Rel: &Relation{}}, nil }
