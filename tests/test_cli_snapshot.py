"""Frozen CLI output: the exact CSV text of each table.

Any change in the printed bytes fails here, not only run-to-run drift
(see test_determinism_byte_identical). The inputs keep every printed
digit clear of BEM round-off: at N = 64 the circle and the mild ellipse are
resolved to machine precision, and the one dipoles row is a tilted ellipse,
because the circle's nu prints as round-off of order 1e-17.
"""

import pytest

from trapmodes.cli import main

ELL = "--shape ellipse --a0 1.2 --b0 0.8 --theta0 0.3"

SNAPSHOTS = [
    ("cutoffs",
     "beta,b,k,Lambda1,Lambda2,tau1,p1_zero,q1,q2\n"
     "0.5,1,1,0.275780622693,1,3.00974728636,2.83876359139,1.19550003938,1.41421356237\n"
     ),
    (f"dipoles {ELL} --N 64",
     "shape,r,a0,b0,theta0,N,mu,kappa,nu,S,delta\n"
     "ellipse,,1.2,0.8,0.3,64,1.16506712298,0.834932877018,0.112928494679,3.01592894745,0.411993429848\n"
     ),
    ("trapped --N 64",
     "beta,b,k,side,a,epsilon,shape,mu,S,sigma,lambda,threshold,omega,D\n"
     "0.5,1,1,U,0.5,0.01,circle,1,3.14159265359,8.5746896916e-05,0.275780620666,0.275780622693,,0.351161777666\n"
     ),
    (f"trapped --side L --a 0.7 --N 64 {ELL}",
     "beta,b,k,side,a,epsilon,shape,mu,S,sigma,lambda,threshold,omega,D\n"
     "0.5,1,1,L,0.7,0.01,ellipse,1.16506712298,3.01592894745,7.40185246664e-05,0.275780621182,0.275780622693,,0.288411827328\n"
     ),
    (f"resonance --a 0.3 --N 64 {ELL}",
     "beta,b,k,side,a,epsilon,shape,mu,S,re_sigma,im_sigma,rcal,jcal,near_embedded,decay_rate,D,D1\n"
     "0.5,1,1,U,0.3,0.01,ellipse,1.16506712298,3.01592894745,0.000353303280172,2.17991482535e-09,-26.7806888344,6.630031623,false,,0.922789232758,4.69863028678\n"
     ),
    ("resonance --side L --N 64 --g 9.81",
     "beta,b,k,side,a,epsilon,shape,mu,S,re_sigma,im_sigma,rcal,jcal,near_embedded,decay_rate,D,D1\n"
     "0.5,1,1,L,0.5,0.01,circle,1,3.14159265359,5.84491964247e-05,1.02504605824e-08,nan,nan,false,1.87653396009e-12,0.204495922985,4.14955186943\n"
     ),
    ("embedded --N 64",
     "beta,b,k,epsilon,shape,delta,exists,a_star,w,tau0,sigma,diagnostics\n"
     "0.5,1,1,0.01,circle,0.5,true,0.170459694155,0.513040601917,3.00974728636,0.000417419357887,\n"
     ),
    ("embedded --beta 0.09 --N 64 --shape ellipse --a0 1.2 --b0 0.8",
     "beta,b,k,epsilon,shape,delta,exists,a_star,w,tau0,sigma,diagnostics\n"
     "0.09,1,1,0.01,ellipse,0.4,true,0.923467407604,1.2509253565,1.35459610832,4.97058287343e-05,\n"
     ),
    ("sweep --what f --sweep a:0.1:1.0:10 --N 64",
     "alpha,tau0,a,f,has_root,a_star\n"
     "0.5,3.00974728636,0.1,3.44312492471,true,0.170459694155\n"
     "0.5,3.00974728636,0.2,-1.26411064396,true,0.170459694155\n"
     "0.5,3.00974728636,0.3,-4.69150005236,true,0.170459694155\n"
     "0.5,3.00974728636,0.4,-6.93052577518,true,0.170459694155\n"
     "0.5,3.00974728636,0.5,-8.29138222305,true,0.170459694155\n"
     "0.5,3.00974728636,0.6,-9.08251214465,true,0.170459694155\n"
     "0.5,3.00974728636,0.7,-9.53058505704,true,0.170459694155\n"
     "0.5,3.00974728636,0.8,-9.78061596095,true,0.170459694155\n"
     "0.5,3.00974728636,0.9,-9.91898037055,true,0.170459694155\n"
     "0.5,3.00974728636,1,-9.99519726841,true,0.170459694155\n"
     ),
    ("sweep --what trapped --sweep a:0.1:0.9:5 --N 64",
     "beta,b,k,side,a,epsilon,shape,mu,S,sigma,lambda,threshold,omega,D\n"
     "0.5,1,1,U,0.1,0.01,circle,1,3.14159265359,8.26244650436e-05,0.275780620811,0.275780622693,,0.351161777666\n"
     "0.5,1,1,U,0.3,0.01,circle,1,3.14159265359,7.50603073619e-05,0.27578062114,0.275780622693,,0.351161777666\n"
     "0.5,1,1,U,0.5,0.01,circle,1,3.14159265359,8.5746896916e-05,0.275780620666,0.275780622693,,0.351161777666\n"
     "0.5,1,1,U,0.7,0.01,circle,1,3.14159265359,0.00011641700803,0.275780618956,0.275780622693,,0.351161777666\n"
     "0.5,1,1,U,0.9,0.01,circle,1,3.14159265359,0.000172043638009,0.275780614531,0.275780622693,,0.351161777666\n"
     ),
]


@pytest.mark.parametrize("args, expected", SNAPSHOTS,
                         ids=[args.replace(" ", "_") for args, _ in SNAPSHOTS])
def test_csv_snapshot(args, expected, tmp_path, capsys):
    out = tmp_path / "snap"
    assert main(args.split() + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == expected
    assert (tmp_path / "snap.csv").read_text() == expected
