// Package goroutine exercises the goroutine-discipline rule: Add
// dominating the go it covers and Done on all paths of the spawned
// literal.
package goroutine

import "sync"

func work(int) {}

// cleanAddGo is the canonical shape.
func cleanAddGo(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(0)
		}()
	}
	wg.Wait()
}

// missingAdd spawns a Done-calling goroutine with no Add at all.
func missingAdd() {
	var wg sync.WaitGroup
	go func() { // want "wg.Add does not precede this go statement"
		defer wg.Done()
	}()
	wg.Wait()
}

// branchAdd only Adds on one path.
func branchAdd(flag bool) {
	var wg sync.WaitGroup
	if flag {
		wg.Add(1)
	}
	go func() { // want "wg.Add does not precede this go statement"
		defer wg.Done()
	}()
	wg.Wait()
}

// addAfterWait reuses the WaitGroup without a fresh Add.
func addAfterWait() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
	}()
	wg.Wait()
	go func() { // want "wg.Add does not precede this go statement"
		defer wg.Done()
	}()
	wg.Wait()
}

// doneEveryPath calls Done explicitly on both branches.
func doneEveryPath(flag bool) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		if flag {
			work(1)
			wg.Done()
			return
		}
		wg.Done()
	}()
	wg.Wait()
}

// doneMissingOnPath returns early without Done.
func doneMissingOnPath(flag bool) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		if flag {
			return // want "goroutine may return without wg.Done"
		}
		wg.Done()
	}()
	wg.Wait()
}

// doneInDeferredClosure covers every path through a deferred literal.
func doneInDeferredClosure() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer func() {
			wg.Done()
		}()
		work(2)
	}()
	wg.Wait()
}

// captureLoopVar references the per-iteration loop variable from a
// goroutine whose Add sits in the loop body: clean.
func captureLoopVar(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(i)
		}()
	}
	wg.Wait()
}

// captureRangeVar references the per-iteration range value: clean.
func captureRangeVar(xs []int) {
	for _, x := range xs {
		go func() {
			work(x)
		}()
	}
}

// rebound spawns a literal over the loop variable: clean.
func rebound(n int) {
	for i := 0; i < n; i++ {
		go func() {
			work(i)
		}()
	}
}

// passedAsArg evaluates the loop variable at spawn time: clean.
func passedAsArg(n int) {
	for i := 0; i < n; i++ {
		go work(i)
	}
}

// externalWaitGroup is coordinated by the caller; Adds happen there,
// so the same-function check does not apply.
func externalWaitGroup(wg *sync.WaitGroup) {
	go func() {
		defer wg.Done()
		work(3)
	}()
}

// allowedHandoff is covered by an allow with a reason.
//
//chirp:allow goroutine-discipline the lifecycle manager Adds before dispatch
func allowedHandoff() {
	var wg sync.WaitGroup
	go func() {
		defer wg.Done()
	}()
	wg.Wait()
}
