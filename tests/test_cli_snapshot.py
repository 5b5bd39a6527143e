"""Frozen CLI output: the exact CSV text of each table.

Any change in the printed bytes fails here, not only run-to-run drift
(see test_determinism_byte_identical). The inputs keep every printed
digit clear of BEM round-off: at N = 64 the circle and the mild ellipse are
resolved to machine precision. The two shape sweeps at N = 1024 and 512
pin the two ways an ellipse's or a circle's dipoles are printed: an ellipse
is solved untilted and its dipoles are tilted by theta0, and a circle or an
untilted ellipse is mirror symmetric, so its system is split into two N/4
blocks and its nu is exactly 0, as is the jcal of the circle's resonance,
which is 2 pi nu times a profile value. Before the split these cells printed
round-off that depended on the BLAS thread count; now every cell prints the
same on one thread as on two.
"""

import pytest

from trapmodes.cli import main

ELL = "--shape ellipse --a0 1.2 --b0 0.8 --theta0 0.3"
THETA0_SWEEP = ("sweep --what dipoles --sweep theta0:-1.2:1.2:5 --shape ellipse "
                "--a0 1.5 --b0 0.7 --N 1024")
R_SWEEP = "sweep --what dipoles --sweep r:0.5:2.5:5 --N 512"

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
    ("trapped --g 9.81 --N 64",
     "beta,b,k,side,a,epsilon,shape,mu,S,sigma,lambda,threshold,omega,D\n"
     "0.5,1,1,U,0.5,0.01,circle,1,3.14159265359,8.5746896916e-05,0.275780620666,0.275780622693,1.64481241749,0.351161777666\n"
     ),
    ("trapped --side L --g 9.81 --N 64",
     "beta,b,k,side,a,epsilon,shape,mu,S,sigma,lambda,threshold,omega,D\n"
     "0.5,1,1,L,0.5,0.01,circle,1,3.14159265359,0.000100685250137,0.275780619898,0.275780622693,1.6448124152,0.352267001384\n"
     ),
    ("resonance --g 9.81 --N 64",
     "beta,b,k,side,a,epsilon,shape,mu,S,re_sigma,im_sigma,rcal,jcal,near_embedded,decay_rate,D,D1\n"
     "0.5,1,1,U,0.5,0.01,circle,1,3.14159265359,0.00021594219566,7.27205773632e-09,-61.5469473611,0,false,4.91846216409e-12,0.755515923468,4.69863028678\n"
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
    ("sweep --what resonance --sweep k:0.5:1.5:5 --N 64 " + ELL,
     "beta,b,k,side,a,epsilon,shape,mu,S,re_sigma,im_sigma,rcal,jcal,near_embedded,decay_rate,D,D1\n"
     "0.5,1,0.5,U,0.5,0.01,ellipse,1.16506712298,3.01592894745,8.10202238856e-05,1.36849412286e-09,-5.96090399613,1.78951653436,false,,0.805181068343,1.07770138786\n"
     "0.5,1,0.75,U,0.5,0.01,ellipse,1.16506712298,3.01592894745,0.000158773304478,6.13644356981e-09,-25.4190068255,4.40466243669,false,,0.794660986221,2.56377904682\n"
     "0.5,1,1,U,0.5,0.01,ellipse,1.16506712298,3.01592894745,0.000236826271029,1.09647362734e-08,-74.9086396086,10.0122280782,false,,0.755515923468,4.69863028678\n"
     "0.5,1,1.25,U,0.5,0.01,ellipse,1.16506712298,3.01592894745,0.000302370237375,1.21053623925e-08,-181.702622775,21.4773815213,false,,0.699551303816,7.42305079354\n"
     "0.5,1,1.5,U,0.5,0.01,ellipse,1.16506712298,3.01592894745,0.000349532907923,1.02160671129e-08,-392.90917307,43.8285160614,false,,0.636345412729,10.7253059923\n"
     ),
    ("sweep --what embedded --sweep beta:0.1:0.9:5 --N 64",
     "beta,b,k,epsilon,shape,delta,exists,a_star,w,tau0,sigma,diagnostics\n"
     "0.1,1,1,0.01,circle,0.5,true,0.949675856511,1.30507733239,1.3742345069,4.49689951738e-05,\n"
     "0.3,1,1,0.01,circle,0.5,true,0.439646379295,0.844082888299,1.91991320309,0.000210232612656,\n"
     "0.5,1,1,0.01,circle,0.5,true,0.170459694155,0.513040601917,3.00974728636,0.000417419357887,\n"
     "0.7,1,1,0.01,circle,0.5,true,0.0470815155035,0.26679901022,5.66674643684,0.000573291673456,\n"
     "0.9,1,1,0.01,circle,0.5,true,0.0041580065564,0.0790021245716,19,0.000651122269241,\n"
     ),
    ("sweep --what dipoles --sweep a0:0.9:1.7:5 --shape ellipse --b0 0.8 --theta0 0.3 --N 64",
     "shape,r,a0,b0,theta0,N,mu,kappa,nu,S,delta\n"
     "ellipse,,0.9,0.8,0.3,64,0.757576763634,0.687423236366,0.0239973051193,2.26194671058,0.475199368937\n"
     "ellipse,,1.1,0.8,0.3,64,1.02011032512,0.784889674875,0.0804615524588,2.76460153516,0.431325895997\n"
     "ellipse,,1.3,0.8,0.3,64,1.31915059891,0.885849401086,0.148218649266,3.26725635973,0.39419305152\n"
     "ellipse,,1.5,0.8,0.3,64,1.654697585,0.990302414999,0.227268595542,3.76991118431,0.362604022293\n"
     "ellipse,,1.7,0.8,0.3,64,2.02675128339,1.09824871661,0.317611391285,4.27256600888,0.33551230759\n"
     ),
    (THETA0_SWEEP,
     "shape,r,a0,b0,theta0,N,mu,kappa,nu,S,delta\n"
     "ellipse,,1.5,0.7,-1.2,1024,0.885546765162,1.53445323484,-0.297203799443,3.29867228627,0.592854065594\n"
     "ellipse,,1.5,0.7,-0.6,1024,1.36943741197,1.05056258803,-0.410097197826,3.29867228627,0.383369108665\n"
     "ellipse,,1.5,0.7,0,1024,1.65,0.77,0,3.29867228627,0.318181818182\n"
     "ellipse,,1.5,0.7,0.6,1024,1.36943741197,1.05056258803,0.410097197826,3.29867228627,0.383369108665\n"
     "ellipse,,1.5,0.7,1.2,1024,0.885546765162,1.53445323484,0.297203799443,3.29867228627,0.592854065594\n"
     ),
    (R_SWEEP,
     "shape,r,a0,b0,theta0,N,mu,kappa,nu,S,delta\n"
     "circle,0.5,,,,512,0.25,0.25,0,0.785398163397,0.5\n"
     "circle,1,,,,512,1,1,0,3.14159265359,0.5\n"
     "circle,1.5,,,,512,2.25,2.25,0,7.06858347058,0.5\n"
     "circle,2,,,,512,4,4,0,12.5663706144,0.5\n"
     "circle,2.5,,,,512,6.25,6.25,0,19.6349540849,0.5\n"
     ),
]


@pytest.mark.parametrize("args, expected", SNAPSHOTS,
                         ids=[args.replace(" ", "_") for args, _ in SNAPSHOTS])
def test_csv_snapshot(args, expected, tmp_path, capsys):
    argv = args.split() + ["--out", str(tmp_path / "snap")]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == expected
    assert (tmp_path / "snap.csv").read_text() == expected
